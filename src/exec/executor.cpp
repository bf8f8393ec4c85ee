#include "exec/executor.hpp"

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "exec/stopper.hpp"
#include "obs/observer.hpp"
#include "obs/trace_record.hpp"

namespace synran::exec {

namespace {

/// Runs one repetition into `ws`/`engine` and returns its summary. This is
/// the single definition of what a repetition *is*; serial and parallel
/// batches both call it, which is what makes their results identical.
RunSummary run_rep(const ProcessFactory& factory,
                   const AdversaryFactory& adversaries, const RepeatSpec& spec,
                   std::size_t rep, Engine& engine, EngineWorkspace& ws,
                   obs::EngineObserver* observer) {
  Xoshiro256 input_rng = input_rng_for_rep(spec.seed, rep);
  make_inputs(ws.inputs(), spec.n, spec.pattern, input_rng);
  auto adversary = adversaries(adversary_seed_for_rep(spec.seed, rep));
  EngineOptions opts = spec.engine;
  opts.seed = engine_seed_for_rep(spec.seed, rep);
  opts.observer = observer;
  return engine.run(factory, ws.inputs(), *adversary, opts);
}

/// One repetition's terminal state: its canonical summary, or the failure
/// that exhausted the retry budget — plus, for observed parallel batches,
/// the rep's buffered callback stream awaiting its rep-order replay.
struct RepOutcome {
  bool ok = false;
  RunSummary summary;
  RepFailure failure;
  std::vector<obs::TraceRecord> records;
};

/// Runs repetition `rep` with its retry budget. Every attempt re-derives
/// the identical per-rep streams (schema 2 makes them pure functions of the
/// master seed and rep index), so a retry either reproduces the one
/// canonical RunSummary or fails again — determinism is preserved either
/// way. `observer` is the rep's callback sink (the configured observer when
/// serial, a per-rep recorder when parallel); abandoned attempts are
/// reported to it so traces stay well formed.
RepOutcome attempt_rep(const ProcessFactory& factory,
                       const AdversaryFactory& adversaries,
                       const RepeatSpec& spec, std::size_t rep, Engine& engine,
                       EngineWorkspace& ws, obs::EngineObserver* observer) {
  const std::uint32_t attempts_allowed = spec.engine.max_rep_retries + 1;
  const std::uint64_t seed = engine_seed_for_rep(spec.seed, rep);
  RepOutcome out;
  std::string last_error;
  for (std::uint32_t attempt = 0; attempt < attempts_allowed; ++attempt) {
    try {
      out.summary =
          run_rep(factory, adversaries, spec, rep, engine, ws, observer);
      out.ok = true;
      return out;
    } catch (const std::exception& e) {
      last_error = e.what();
    } catch (...) {
      last_error = "unknown exception";
    }
    if (observer != nullptr) {
      observer->on_run_abandoned(
          obs::RunAbandoned{rep, seed, attempt, last_error});
    }
  }
  out.failure = RepFailure{rep, seed, attempts_allowed, last_error};
  return out;
}

constexpr std::size_t kNoFailure = static_cast<std::size_t>(-1);

/// Lowers `first_failed` to `rep` unless a lower rep already failed.
void note_failure(std::atomic<std::size_t>& first_failed, std::size_t rep) {
  std::size_t seen = first_failed.load(std::memory_order_relaxed);
  while (rep < seen && !first_failed.compare_exchange_weak(
                           seen, rep, std::memory_order_relaxed)) {
  }
}

[[noreturn]] void throw_interrupted(std::size_t completed, std::size_t reps) {
  throw Interrupted("stop requested: batch interrupted after " +
                    std::to_string(completed) + " of " + std::to_string(reps) +
                    " repetitions");
}

}  // namespace

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SYNRAN_THREADS");
      env != nullptr && *env != '\0') {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    return n >= 1 ? static_cast<unsigned>(n) : 1u;
  }
  return 1;
}

RepeatedRunStats BatchExecutor::run(const ProcessFactory& factory,
                                    const AdversaryFactory& adversaries,
                                    const RepeatSpec& spec) const {
  SYNRAN_REQUIRE(spec.reps >= 1, "need at least one repetition");
  unsigned threads =
      resolve_threads(spec.threads != 0 ? spec.threads : options_.threads);
  if (threads > spec.reps) threads = static_cast<unsigned>(spec.reps);

  const bool quarantine = spec.policy == FailurePolicy::Quarantine;
  RepeatedRunStats stats;

  if (threads == 1) {
    // Serial fast path on the calling thread: one workspace, reps in order,
    // observer callbacks fired live.
    EngineWorkspace ws;
    Engine engine(ws);
    for (std::size_t rep = 0; rep < spec.reps; ++rep) {
      if (stop_requested()) throw_interrupted(rep, spec.reps);
      RepOutcome out = attempt_rep(factory, adversaries, spec, rep, engine, ws,
                                   spec.engine.observer);
      if (out.ok) {
        stats.add(out.summary);
      } else if (quarantine) {
        stats.note_quarantined(std::move(out.failure));
      } else {
        throw RepError(rep, out.failure.seed, out.failure.error);
      }
    }
    return stats;
  }

  // Parallel path. Workers fill disjoint slots of `outcomes`; the only
  // shared mutable state is the fail-fast index below and the (monotonic)
  // stop flag. A stop request lets every worker finish its in-flight rep,
  // then the batch throws after the join.
  std::vector<RepOutcome> outcomes(spec.reps);
  std::vector<unsigned char> done(spec.reps, 0);
  // Lowest rep index known to have failed (fail-fast only). A worker skips
  // just the reps above it, so the earliest failing rep always runs and is
  // the one reported, whichever worker fails first in wall time.
  std::atomic<std::size_t> first_failed{kNoFailure};

  const bool observed = spec.engine.observer != nullptr;

  auto worker = [&](unsigned w) {
    EngineWorkspace ws;
    Engine engine(ws);
    for (std::size_t rep = w; rep < spec.reps; rep += threads) {
      if (stop_requested()) return;
      if (!quarantine && rep > first_failed.load(std::memory_order_relaxed))
        return;
      if (observed) {
        // Buffer the rep's callback stream privately; the fold below
        // replays the buffers into the real observer in rep order, so the
        // observer sees the serial stream regardless of scheduling.
        std::vector<obs::TraceRecord> records;
        obs::TraceRecorder recorder(records);
        RepOutcome out = attempt_rep(factory, adversaries, spec, rep, engine,
                                     ws, &recorder);
        out.records = std::move(records);
        outcomes[rep] = std::move(out);
      } else {
        outcomes[rep] =
            attempt_rep(factory, adversaries, spec, rep, engine, ws, nullptr);
      }
      done[rep] = 1;
      if (!outcomes[rep].ok && !quarantine) {
        note_failure(first_failed, rep);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  for (auto& t : pool) t.join();

  if (stop_requested()) {
    std::size_t completed = 0;
    for (const unsigned char d : done) completed += d;
    throw_interrupted(completed, spec.reps);
  }

  if (const std::size_t rep = first_failed.load(); rep != kNoFailure) {
    // Deterministic error selection: every rep below `rep` ran and passed,
    // so this is the earliest failing rep at any thread count.
    SYNRAN_CHECK_MSG(done[rep] != 0 && !outcomes[rep].ok,
                     "fail-fast index names a rep without a recorded failure");
    throw RepError(rep, outcomes[rep].failure.seed,
                   outcomes[rep].failure.error);
  }

  // Fold in rep order — the serial run's exact floating-point sequence —
  // replaying each rep's buffered callbacks first, so an observer's event
  // stream interleaves with the fold exactly as a serial run's would.
  for (std::size_t rep = 0; rep < spec.reps; ++rep) {
    SYNRAN_CHECK_MSG(done[rep] != 0, "worker skipped a repetition");
    if (observed) obs::replay(outcomes[rep].records, *spec.engine.observer);
    if (outcomes[rep].ok) {
      stats.add(outcomes[rep].summary);
    } else {
      stats.note_quarantined(std::move(outcomes[rep].failure));
    }
  }
  return stats;
}

}  // namespace synran::exec
