// Executing a canonical config.
//
// The plan itself — the protocol/adversary/scheduler/delay factories and
// the repeat spec — comes from the run-config grammar in
// runner/run_spec.hpp, the same code `synran run` builds its batches
// with. Execution returns the batch's EXACT checkpoint payload
// (RepeatedRunStats/AsyncRunStats::checkpoint_json), which is what the
// content-addressed cache stores; the client-facing result object is then
// derived from that payload by result_from_payload() on BOTH the compute
// and the cache-hit path, so a hit is byte-identical to a fresh run by
// construction, not by luck.
#pragma once

#include "obs/json.hpp"
#include "runner/run_spec.hpp"

namespace synran::serve {

using ::synran::build_plan;
using ::synran::RunPlan;

/// Runs the batch. Returns the exact checkpoint payload. Propagates
/// exec::Interrupted when a deadline or drain stop lands mid-batch.
obs::JsonValue execute_plan(const RunPlan& plan);

/// Derives the client-facing result object from a checkpoint payload by
/// restoring the aggregate and re-reading it: headline verdict counters, a
/// few headline means, and the full payload under "checkpoint" so clients
/// can rebuild the aggregate exactly. Throws on a foreign/corrupt payload
/// (the cache validator treats that as a torn entry).
obs::JsonValue result_from_payload(bool is_async,
                                   const obs::JsonValue& payload);

}  // namespace synran::serve
