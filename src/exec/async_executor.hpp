// Deterministic thread-pooled batch execution for the asynchronous engine.
//
// AsyncBatchExecutor supplies only "run rep k" — build the rep's inputs,
// scheduler and delay model from their per-rep streams (exec/async_batch.hpp)
// and run it — and shares every other part of a batch with BatchExecutor:
// exec/rep_scheduler.hpp owns the sharding, retries, quarantine, stop and
// rep-order observer replay that make statistics and traces bit-identical
// to the serial run at any thread count.
#pragma once

#include "exec/async_batch.hpp"
#include "exec/executor.hpp"

namespace synran::exec {

/// Runs batches of independent seeded async executions. Stateless; one
/// executor may run many batches.
class AsyncBatchExecutor {
 public:
  /// Runs spec.reps executions on resolve_threads(spec.threads) workers and
  /// returns the aggregate. `delays` may be null-valued (no factory) or
  /// return nullptr per rep — both mean the adversary-held default.
  AsyncRunStats run(const AsyncProcessFactory& factory,
                    const AsyncSchedulerFactory& schedulers,
                    const AsyncDelayFactory& delays,
                    const AsyncRepeatSpec& spec) const;
};

}  // namespace synran::exec
