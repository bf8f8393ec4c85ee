// In-memory trace events: the unit the trace readers yield.
//
// A TraceRecord is one EngineObserver callback, reified. The binary/JSONL
// readers decode files back into records, TraceTapeReader decodes an
// in-memory TraceTape (trace_tape.hpp) into them, and replay() turns a
// record into its callback again — so any reader can drive any writer or
// aggregator, and "convert" is reader → replay → writer.
//
// Kinds RoundBegin/FaultPlan/Deliveries exist only in memory: the trace
// file schemas persist run_begin / round(= on_round_end) / run_end /
// run_abandoned, while a tape keeps the full callback stream so replaying
// into a live observer (metrics, a future exporter) is indistinguishable
// from observing the engine directly.
#pragma once

#include <cstdint>

#include "obs/observer.hpp"

namespace synran::obs {

enum class TraceRecordKind : std::uint8_t {
  RunBegin,
  RoundBegin,   ///< in-memory only (not persisted by the file formats)
  FaultPlan,    ///< in-memory only
  Deliveries,   ///< in-memory only
  RoundEnd,
  RunEnd,
  RunAbandoned,
};

/// One observer callback. Only the fields for `kind` are meaningful: the
/// file readers reset the rest, while TraceTapeReader leaves them as they
/// were so one reused record keeps its plan buffers (a tagged union is not
/// worth the access ceremony).
struct TraceRecord {
  TraceRecordKind kind = TraceRecordKind::RunBegin;
  RunInfo begin;             ///< RunBegin
  RoundObservation round;    ///< RoundBegin / RoundEnd
  Round plan_round = 0;      ///< FaultPlan / Deliveries
  FaultPlan plan;            ///< FaultPlan
  std::uint64_t delivered = 0;  ///< Deliveries
  RunObservation end;        ///< RunEnd
  RunAbandoned abandoned;    ///< RunAbandoned
};

/// Re-fires one record as the corresponding callback on `to`.
void replay(const TraceRecord& record, EngineObserver& to);

}  // namespace synran::obs
