#include "obs/trace_record.hpp"

namespace synran::obs {

void replay(const TraceRecord& record, EngineObserver& to) {
  switch (record.kind) {
    case TraceRecordKind::RunBegin:
      to.on_run_begin(record.begin);
      break;
    case TraceRecordKind::RoundBegin:
      to.on_round_begin(record.round);
      break;
    case TraceRecordKind::FaultPlan:
      to.on_fault_plan(record.plan_round, record.plan);
      break;
    case TraceRecordKind::Deliveries:
      to.on_deliveries(record.plan_round, record.delivered);
      break;
    case TraceRecordKind::RoundEnd:
      to.on_round_end(record.round);
      break;
    case TraceRecordKind::RunEnd:
      to.on_run_end(record.end);
      break;
    case TraceRecordKind::RunAbandoned:
      to.on_run_abandoned(record.abandoned);
      break;
  }
}

}  // namespace synran::obs
