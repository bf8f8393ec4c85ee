// Batch-execution vocabulary for the asynchronous (event-driven) engine:
// per-rep factories for schedulers and delay models, the async repeat spec,
// and the registry-backed aggregate.
//
// Seeding extends schema 2 (exec/batch.hpp) with one more per-rep stream:
// with S = SeedSequence(seed), repetition k of an async batch uses
//   inputs     Xoshiro256(S.stream(kInputStreamBase + k))
//   scheduler  S.stream(kAdversaryStreamBase + k)   (the async adversary)
//   engine     S.stream(kEngineStreamBase + k)      (per-process coins)
//   delay      S.stream(kAsyncDelayStreamBase + k)  (link-delay randomness)
// Each stream is a pure function of (master seed, k), so serial, sharded,
// and resumed batches reproduce identical executions — the same property
// the synchronous executor proves with its ExecEquivalence suite.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "async/core.hpp"
#include "exec/batch.hpp"

namespace synran {

/// Stream-id base for per-rep delay-model seeds; disjoint from the input,
/// adversary, and engine bases for any batch below ~2^31 reps.
inline constexpr std::uint64_t kAsyncDelayStreamBase =
    0x44454c4159ULL;  // "DELAY"

/// The delay-model seed for repetition `rep` under master seed `seed`.
std::uint64_t delay_seed_for_rep(std::uint64_t seed, std::size_t rep);

/// Builds a fresh scheduler (the async adversary) for one repetition.
/// Invoked from worker threads when a batch runs parallel, so factories
/// must be safe to call concurrently (stateless lambdas are).
using AsyncSchedulerFactory =
    std::function<std::unique_ptr<AsyncScheduler>(std::uint64_t seed)>;

/// Builds a fresh delay model per repetition. Returning nullptr selects the
/// adversary-held default (pure asynchrony — the scheduler alone decides
/// delivery order, and the pre-event-loop engine's exact behavior).
using AsyncDelayFactory =
    std::function<std::unique_ptr<DelayModel>(std::uint64_t seed)>;

AsyncSchedulerFactory fifo_scheduler_factory();
AsyncSchedulerFactory random_scheduler_factory();
AsyncSchedulerFactory laggard_scheduler_factory();
AsyncSchedulerFactory stall_scheduler_factory();

/// The adversary-held default (factory returns nullptr every rep).
AsyncDelayFactory held_delay_factory();
AsyncDelayFactory fixed_delay_factory(SimTime latency);
AsyncDelayFactory uniform_delay_factory(SimTime lo, SimTime hi);
/// Adversary-held before `gst`, forced delivery within `bound` after —
/// the DLS partial-synchrony link model.
AsyncDelayFactory gst_delay_factory(SimTime gst, SimTime bound);

/// Aggregate over repeated async executions; the verdict counters,
/// quarantine list and checkpoint round trip come from BatchStats.
///
/// Registry summaries: rounds_to_decision, ticks_to_decision (terminated
/// reps), crashes_used, messages_delivered, coin_flips, timers_fired,
/// omissions_used, messages_omitted (all reps).
class AsyncRunStats : public BatchStats {
 public:
  AsyncRunStats();

  /// Folds one repetition in. Fold order fixes the floating-point sequence;
  /// parallel batches fold in rep order to match the serial run exactly.
  void add(const AsyncRunResult& rep);

  const Summary& rounds_to_decision() const;
  /// Simulated ticks until the last live process decided (terminated reps;
  /// always 0 under pure asynchrony, where time never advances).
  const Summary& ticks_to_decision() const;
  const Summary& crashes_used() const;
  const Summary& messages_delivered() const;
  const Summary& coin_flips() const;
  const Summary& timers_fired() const;
  const Summary& omissions_used() const;
  const Summary& messages_omitted() const;

  /// Inverse of checkpoint_json(); errors read "async stats checkpoint …".
  static AsyncRunStats from_checkpoint(const obs::JsonValue& payload);
};

struct AsyncRepeatSpec {
  std::uint32_t n = 0;
  InputPattern pattern = InputPattern::Random;
  /// Per-rep template: seed and delay are re-derived/rebuilt per rep; the
  /// observer (if any) receives the serial callback stream at any thread
  /// count, exactly like the synchronous executor.
  AsyncEngineOptions engine;
  std::size_t reps = 1;
  std::uint64_t seed = 1;  ///< master seed for the whole batch
  /// 1 = serial, N > 1 = workers, 0 = auto (SYNRAN_THREADS, else serial).
  unsigned threads = 0;
  FailurePolicy policy = FailurePolicy::FailFast;
  /// Extra attempts for a throwing rep before the policy applies (per-rep
  /// seeds are pure, so a retry reproduces the same execution or fails
  /// again deterministically).
  std::uint32_t max_rep_retries = 0;
};

/// Checkpoint-ledger cell key for an async sweep cell: fingerprints the
/// protocol, the caller's tag (which names the scheduler/delay pairing —
/// factories are opaque functions, so the tag is their identity), every
/// AsyncRepeatSpec field a rep's execution depends on, and the seed schema.
/// The async mirror of spec_cell_key; a resumed run only reloads a cell
/// whose recorded key still matches.
std::string async_spec_cell_key(const AsyncRepeatSpec& spec,
                                std::string_view protocol,
                                std::string_view tag);

}  // namespace synran
