// The one rep scheduler behind BatchExecutor and AsyncBatchExecutor
// (internal: only executor.cpp and async_executor.cpp include it).
//
// A batch runs the repetitions of one spec across worker threads and
// produces statistics that are bit-identical to the serial run at any
// thread count. Each executor supplies only "run rep k"; everything else —
// sharding, retries, quarantine, stop, observer buffering and the
// rep-order fold — lives here once. Three design rules make the results
// thread-count invariant:
//
//  1. Static seed-indexed schedule. Repetition k derives every input it
//     consumes from per-rep streams of the master seed (seeding schema 2,
//     exec/batch.hpp, plus the async delay stream, exec/async_batch.hpp),
//     never from shared mutable state — so which worker runs a rep, and in
//     what order, cannot change what the rep computes. Worker w owns reps
//     {k : k mod threads == w}.
//  2. Per-worker state. make_worker() is called once per worker thread
//     (once for a serial batch), so a worker's thousands of reps can reuse
//     one set of buffers — the synchronous worker owns one EngineWorkspace
//     and the Engine bound to it. Nothing is shared between concurrent
//     reps except the read-only spec.
//  3. Rep-order aggregation. Workers record each rep's result into
//     disjoint slots of one pre-sized array; after the join, the results
//     are folded into the stats serially in rep order. Folding per-rep
//     scalars in rep order reproduces the serial run's floating-point
//     operations exactly — which a tree-merge of per-worker Welford
//     accumulators would not.
//
// Observers compose with all of this: a serial batch fires the configured
// observer live, while a parallel batch gives each rep a private
// obs::TraceRecorder, buffers every callback of the rep in its outcome
// slot, and replays the buffers into the real observer serially in rep
// order during the fold. The observer therefore sees the exact serial
// callback stream at any thread count — traces written through it are
// byte-identical to a 1-thread run (both trace formats; ctest-proven). The
// replay happens only for batches that complete: a FailFast abort or a
// stop request throws before the fold, so a parallel trace may then miss
// events a serial run would have flushed before its own throw.
//
// Failure domains (see exec/batch.hpp): a rep that throws is retried with
// its identical per-rep seeds up to max_rep_retries times, then either
// aborts the batch as a RepError naming the earliest failing rep
// (FailurePolicy::FailFast, the default) or is quarantined as a structured
// RepFailure while the survivors fold normally (FailurePolicy::Quarantine).
// Both policies produce thread-count-invariant results: a rep's outcome is
// a pure function of (master seed, rep), never of scheduling. The
// scheduler also polls the cooperative stop flag (exec/stopper.hpp)
// between reps — in-flight reps finish, then the batch throws Interrupted
// so callers can flush checkpoints and partial artifacts.
//
// This header is the one place that starts batch worker threads
// (tools/synran_lint confines threading primitives to src/exec/ and
// src/serve/, whose deadline watchdog is the only other thread).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "exec/batch.hpp"
#include "exec/executor.hpp"
#include "exec/stopper.hpp"
#include "obs/observer.hpp"
#include "obs/trace_record.hpp"

namespace synran::exec::detail {

/// Everything the scheduler needs to know about a batch besides how to run
/// one rep.
struct BatchShape {
  std::size_t reps = 1;
  unsigned threads = 1;  ///< resolved, and at most reps
  FailurePolicy policy = FailurePolicy::FailFast;
  std::uint32_t max_rep_retries = 0;
  std::uint64_t seed = 1;  ///< master seed; names a failed rep's engine seed
  obs::EngineObserver* observer = nullptr;
};

/// The shape of a RepeatSpec or AsyncRepeatSpec: both spell these fields
/// the same way.
template <typename Spec>
BatchShape shape_of(const Spec& spec) {
  SYNRAN_REQUIRE(spec.reps >= 1, "need at least one repetition");
  unsigned threads = resolve_threads(spec.threads);
  if (threads > spec.reps) threads = static_cast<unsigned>(spec.reps);
  return BatchShape{spec.reps,           threads,   spec.policy,
                    spec.max_rep_retries, spec.seed, spec.engine.observer};
}

/// One repetition's terminal state: its result, or the failure that
/// exhausted the retry budget — plus, for observed parallel batches, the
/// rep's buffered callback stream awaiting its rep-order replay.
template <typename Result>
struct RepOutcome {
  bool ok = false;
  Result result;
  RepFailure failure;
  std::vector<obs::TraceRecord> records;
};

/// Runs repetition `rep` with its retry budget. Every attempt re-derives
/// the identical per-rep streams, so a retry either reproduces the one
/// canonical result or fails again — determinism is preserved either way.
/// `observer` is the rep's callback sink (the configured observer when
/// serial, a per-rep recorder when parallel); abandoned attempts are
/// reported to it so traces stay well formed.
template <typename Result, typename Worker>
RepOutcome<Result> attempt_rep(const BatchShape& shape, Worker& worker,
                               std::size_t rep,
                               obs::EngineObserver* observer) {
  const std::uint32_t attempts_allowed = shape.max_rep_retries + 1;
  const std::uint64_t seed = engine_seed_for_rep(shape.seed, rep);
  RepOutcome<Result> out;
  std::string last_error;
  for (std::uint32_t attempt = 0; attempt < attempts_allowed; ++attempt) {
    try {
      out.result = worker(rep, observer);
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

[[noreturn]] inline void throw_interrupted(std::size_t completed,
                                           std::size_t reps) {
  throw Interrupted("stop requested: batch interrupted after " +
                    std::to_string(completed) + " of " + std::to_string(reps) +
                    " repetitions");
}

/// Runs shape.reps repetitions and folds them into a Stats in rep order.
/// `make_worker()` builds one worker per thread; a worker is called as
/// `Result worker(std::size_t rep, obs::EngineObserver* observer)` and must
/// run repetition `rep` from its per-rep streams alone, reporting to
/// `observer` (which may be null).
template <typename Stats, typename Result, typename MakeWorker>
Stats run_reps(const BatchShape& shape, const MakeWorker& make_worker) {
  const bool quarantine = shape.policy == FailurePolicy::Quarantine;
  Stats stats;

  if (shape.threads == 1) {
    // Serial fast path on the calling thread: one worker, reps in order,
    // observer callbacks fired live.
    auto worker = make_worker();
    for (std::size_t rep = 0; rep < shape.reps; ++rep) {
      if (stop_requested()) throw_interrupted(rep, shape.reps);
      RepOutcome<Result> out =
          attempt_rep<Result>(shape, worker, rep, shape.observer);
      if (out.ok) {
        stats.add(out.result);
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
  std::vector<RepOutcome<Result>> outcomes(shape.reps);
  std::vector<unsigned char> done(shape.reps, 0);
  // Lowest rep index known to have failed (fail-fast only). A worker skips
  // just the reps above it, so the earliest failing rep always runs and is
  // the one reported, whichever worker fails first in wall time.
  constexpr std::size_t kNoFailure = static_cast<std::size_t>(-1);
  std::atomic<std::size_t> first_failed{kNoFailure};

  const bool observed = shape.observer != nullptr;
  // An exception that escapes a shard rather than failing one rep (e.g.
  // bad_alloc building a worker), per worker; rethrown after the join.
  std::vector<std::exception_ptr> shard_errors(shape.threads);

  auto run_shard = [&](unsigned w) {
    try {
      auto worker = make_worker();
      for (std::size_t rep = w; rep < shape.reps; rep += shape.threads) {
        if (stop_requested()) return;
        if (!quarantine && rep > first_failed.load(std::memory_order_relaxed))
          return;
        if (observed) {
          // Buffer the rep's callback stream privately; the fold below
          // replays the buffers into the real observer in rep order, so the
          // observer sees the serial stream regardless of scheduling.
          std::vector<obs::TraceRecord> records;
          obs::TraceRecorder recorder(records);
          RepOutcome<Result> out =
              attempt_rep<Result>(shape, worker, rep, &recorder);
          out.records = std::move(records);
          outcomes[rep] = std::move(out);
        } else {
          outcomes[rep] = attempt_rep<Result>(shape, worker, rep, nullptr);
        }
        done[rep] = 1;
        if (!outcomes[rep].ok && !quarantine) {
          // Lower the fail-fast index to `rep` unless a lower rep already
          // failed.
          std::size_t seen = first_failed.load(std::memory_order_relaxed);
          while (rep < seen && !first_failed.compare_exchange_weak(
                                   seen, rep, std::memory_order_relaxed)) {
          }
          return;
        }
      }
    } catch (...) {
      shard_errors[w] = std::current_exception();
    }
  };

  {
    // jthreads join when the pool goes out of scope, also when starting a
    // later worker throws.
    std::vector<std::jthread> pool;
    pool.reserve(shape.threads);
    for (unsigned w = 0; w < shape.threads; ++w)
      pool.emplace_back(run_shard, w);
  }
  for (const std::exception_ptr& error : shard_errors) {
    if (error) std::rethrow_exception(error);
  }

  if (stop_requested()) {
    std::size_t completed = 0;
    for (const unsigned char d : done) completed += d;
    throw_interrupted(completed, shape.reps);
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
  for (std::size_t rep = 0; rep < shape.reps; ++rep) {
    SYNRAN_CHECK_MSG(done[rep] != 0, "worker skipped a repetition");
    if (observed) obs::replay(outcomes[rep].records, *shape.observer);
    if (outcomes[rep].ok) {
      stats.add(outcomes[rep].result);
    } else {
      stats.note_quarantined(std::move(outcomes[rep].failure));
    }
  }
  return stats;
}

}  // namespace synran::exec::detail
