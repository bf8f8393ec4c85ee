// Compact in-memory capture of one callback stream.
//
// A parallel batch cannot fire its observer live: reps finish out of order
// on several threads, yet the observer must see the serial stream. So each
// rep records its callbacks on a TraceTape, and the batch replays the tapes
// in rep order after the join (exec/rep_scheduler.hpp). A tape is one flat
// byte buffer. Each entry is a TraceRecordKind byte followed by that
// callback's fields:
//
//   RunBegin, RoundBegin, RoundEnd, RunEnd  the RunInfo / RoundObservation /
//                                           RunObservation, memcpy'd whole
//   FaultPlan     round, crash / omission / corruption counts, then per
//                 crash or omission the process id, the mask's bit count
//                 and its raw words (DynBitset::words()), then per
//                 corruption the sender, the forgery count and the
//                 forgeries
//   Deliveries    round, delivered
//   RunAbandoned  rep, seed, attempt, then the error text with its length
//
// The layout is host-endian and unaligned (every field moves through
// memcpy), lives in memory only and is never persisted: the file formats
// are trace_writer.hpp and trace_binary.hpp. Unlike those, a tape keeps the
// in-memory-only kinds (RoundBegin, FaultPlan, Deliveries), so replaying
// it into any observer is indistinguishable from observing the engine.
//
// TraceTapeReader reads a tape back, either as TraceRecords (it is a
// TraceReader) or straight into callbacks. It decodes every plan into one
// reused FaultPlan and keeps the directives a smaller plan leaves over, so
// a reader reused across tapes stops allocating once it has seen the
// largest plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "obs/observer.hpp"
#include "obs/trace_reader.hpp"
#include "obs/trace_record.hpp"

namespace synran::obs {

/// Records every callback it receives, in order, into a flat byte buffer.
/// Copying a tape copies the bytes into one exact-size allocation.
class TraceTape final : public EngineObserver {
 public:
  void on_run_begin(const RunInfo& info) override;
  void on_round_begin(const RoundObservation& round) override;
  void on_fault_plan(Round round, const FaultPlan& plan) override;
  void on_deliveries(Round round, std::uint64_t delivered) override;
  void on_round_end(const RoundObservation& round) override;
  void on_run_end(const RunObservation& result) override;
  void on_run_abandoned(const RunAbandoned& failure) override;

  /// Forgets the recorded stream but keeps the buffer's capacity.
  void clear() { bytes_.clear(); }
  bool empty() const { return bytes_.empty(); }
  std::size_t size_bytes() const { return bytes_.size(); }

  /// Re-fires the recorded callbacks, in order, on `to`.
  void replay(EngineObserver& to) const;

 private:
  friend class TraceTapeReader;

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(&value, sizeof value);
  }
  void put_bytes(const void* data, std::size_t size);

  std::vector<unsigned char> bytes_;
};

/// Reads a tape back in recording order. The tape is borrowed and must
/// outlive the reading; rewind() points a reader at another tape.
class TraceTapeReader final : public TraceReader {
 public:
  TraceTapeReader() = default;
  explicit TraceTapeReader(const TraceTape& tape) { rewind(tape); }

  /// Restarts reading at the first entry of `tape`.
  void rewind(const TraceTape& tape);

  /// Decodes the next entry, of any kind, into `out`; false at the end.
  bool next(TraceRecord& out) override;

  /// Re-fires the remaining entries, in order, on `to`.
  void replay(EngineObserver& to);

 private:
  template <typename T>
  void take(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    take_bytes(&value, sizeof value);
  }
  void take_bytes(void* data, std::size_t size);
  void take_plan(FaultPlan& plan);

  const unsigned char* pos_ = nullptr;
  const unsigned char* end_ = nullptr;
  TraceRecord record_;  ///< replay()'s decode target, reused across entries
  // Directives a smaller plan left over, kept for the next larger one.
  std::vector<CrashDirective> spare_crashes_;
  std::vector<OmissionDirective> spare_omissions_;
  std::vector<CorruptionDirective> spare_corruptions_;
};

}  // namespace synran::obs
