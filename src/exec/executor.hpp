// Deterministic thread-pooled batch execution.
//
// BatchExecutor runs the repetitions of one RepeatSpec across worker
// threads and produces a RepeatedRunStats that is bit-identical to the
// serial run at any thread count. It supplies only "run rep k" — each
// worker owns one EngineWorkspace and the Engine bound to it — and hands
// sharding, retries, quarantine, stop and the rep-order observer replay to
// the shared scheduler; exec/rep_scheduler.hpp states the rules that make
// the results thread-count invariant.
#pragma once

#include "exec/batch.hpp"
#include "sim/process.hpp"

namespace synran::exec {

/// Resolves a requested thread count: N > 0 means N workers; 0 means auto —
/// the SYNRAN_THREADS environment variable when set (clamped to ≥ 1), else 1
/// (serial, the deterministic default that never surprises a caller).
unsigned resolve_threads(unsigned requested);

/// Runs batches of independent seeded executions. Stateless; one executor
/// may run many batches.
class BatchExecutor {
 public:
  /// Runs spec.reps executions on resolve_threads(spec.threads) workers and
  /// returns the aggregate. A configured spec.engine.observer receives the
  /// serial callback stream at any thread count.
  RepeatedRunStats run(const ProcessFactory& factory,
                       const AdversaryFactory& adversaries,
                       const RepeatSpec& spec) const;
};

}  // namespace synran::exec
