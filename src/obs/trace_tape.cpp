#include "obs/trace_tape.hpp"

#include <cstring>

#include "common/check.hpp"

namespace synran::obs {

namespace {

// Fixed widths of the variable-size parts of an entry.
using Count = std::uint32_t;
using Bits = std::uint64_t;

/// Resizes `v` to `n`, moving surplus elements into `spare` and taking
/// missing ones back from it, so their heap buffers outlive the resize.
template <typename T>
void resize_keeping(std::vector<T>& v, std::vector<T>& spare, std::size_t n) {
  while (v.size() > n) {
    spare.push_back(std::move(v.back()));
    v.pop_back();
  }
  while (v.size() < n) {
    if (spare.empty()) {
      v.emplace_back();
    } else {
      v.push_back(std::move(spare.back()));
      spare.pop_back();
    }
  }
}

}  // namespace

// ------------------------------------------------------------ recording

void TraceTape::put_bytes(const void* data, std::size_t size) {
  const auto* first = static_cast<const unsigned char*>(data);
  bytes_.insert(bytes_.end(), first, first + size);
}

void TraceTape::on_run_begin(const RunInfo& info) {
  put(TraceRecordKind::RunBegin);
  put(info);
}

void TraceTape::on_round_begin(const RoundObservation& round) {
  put(TraceRecordKind::RoundBegin);
  put(round);
}

void TraceTape::on_fault_plan(Round round, const FaultPlan& plan) {
  put(TraceRecordKind::FaultPlan);
  put(round);
  put(static_cast<Count>(plan.crashes.size()));
  put(static_cast<Count>(plan.omissions.size()));
  put(static_cast<Count>(plan.corruptions.size()));
  const auto put_mask = [this](ProcessId who, const DynBitset& mask) {
    put(who);
    put(static_cast<Bits>(mask.size()));
    put_bytes(mask.words().data(), mask.words().size_bytes());
  };
  for (const CrashDirective& c : plan.crashes) put_mask(c.victim, c.deliver_to);
  for (const OmissionDirective& o : plan.omissions)
    put_mask(o.sender, o.drop_for);
  for (const CorruptionDirective& c : plan.corruptions) {
    put(c.sender);
    put(static_cast<Count>(c.forgeries.size()));
    put_bytes(c.forgeries.data(),
              c.forgeries.size() * sizeof(CorruptionDirective::Forgery));
  }
}

void TraceTape::on_deliveries(Round round, std::uint64_t delivered) {
  put(TraceRecordKind::Deliveries);
  put(round);
  put(delivered);
}

void TraceTape::on_round_end(const RoundObservation& round) {
  put(TraceRecordKind::RoundEnd);
  put(round);
}

void TraceTape::on_run_end(const RunObservation& result) {
  put(TraceRecordKind::RunEnd);
  put(result);
}

void TraceTape::on_run_abandoned(const RunAbandoned& failure) {
  put(TraceRecordKind::RunAbandoned);
  put(static_cast<std::uint64_t>(failure.rep));
  put(failure.seed);
  put(failure.attempt);
  put(static_cast<std::uint64_t>(failure.error.size()));
  put_bytes(failure.error.data(), failure.error.size());
}

void TraceTape::replay(EngineObserver& to) const {
  TraceTapeReader(*this).replay(to);
}

// -------------------------------------------------------------- reading

void TraceTapeReader::rewind(const TraceTape& tape) {
  pos_ = tape.bytes_.data();
  end_ = pos_ + tape.bytes_.size();
}

void TraceTapeReader::take_bytes(void* data, std::size_t size) {
  SYNRAN_CHECK_MSG(size <= static_cast<std::size_t>(end_ - pos_),
                   "trace tape entry runs past the end of the tape");
  if (size != 0) std::memcpy(data, pos_, size);
  pos_ += size;
}

void TraceTapeReader::take_plan(FaultPlan& plan) {
  Count crashes = 0, omissions = 0, corruptions = 0;
  take(crashes);
  take(omissions);
  take(corruptions);
  const auto take_mask = [this](ProcessId& who, DynBitset& mask) {
    take(who);
    Bits bits = 0;
    take(bits);
    const std::size_t size = (bits + 63) / 64 * sizeof(std::uint64_t);
    SYNRAN_CHECK_MSG(size <= static_cast<std::size_t>(end_ - pos_),
                     "trace tape mask runs past the end of the tape");
    mask.assign_words(bits, pos_);
    pos_ += size;
  };
  resize_keeping(plan.crashes, spare_crashes_, crashes);
  for (CrashDirective& c : plan.crashes) take_mask(c.victim, c.deliver_to);
  resize_keeping(plan.omissions, spare_omissions_, omissions);
  for (OmissionDirective& o : plan.omissions) take_mask(o.sender, o.drop_for);
  resize_keeping(plan.corruptions, spare_corruptions_, corruptions);
  for (CorruptionDirective& c : plan.corruptions) {
    take(c.sender);
    Count forgeries = 0;
    take(forgeries);
    c.forgeries.resize(forgeries);
    take_bytes(c.forgeries.data(),
               c.forgeries.size() * sizeof(CorruptionDirective::Forgery));
  }
}

bool TraceTapeReader::next(TraceRecord& out) {
  if (pos_ == end_) return false;
  take(out.kind);
  switch (out.kind) {
    case TraceRecordKind::RunBegin:
      take(out.begin);
      break;
    case TraceRecordKind::RoundBegin:
    case TraceRecordKind::RoundEnd:
      take(out.round);
      break;
    case TraceRecordKind::FaultPlan:
      take(out.plan_round);
      take_plan(out.plan);
      break;
    case TraceRecordKind::Deliveries:
      take(out.plan_round);
      take(out.delivered);
      break;
    case TraceRecordKind::RunEnd:
      take(out.end);
      break;
    case TraceRecordKind::RunAbandoned: {
      std::uint64_t rep = 0, length = 0;
      take(rep);
      out.abandoned.rep = static_cast<std::size_t>(rep);
      take(out.abandoned.seed);
      take(out.abandoned.attempt);
      take(length);
      out.abandoned.error.resize(static_cast<std::size_t>(length));
      take_bytes(out.abandoned.error.data(), out.abandoned.error.size());
      break;
    }
    default:
      SYNRAN_CHECK_MSG(false, "trace tape holds an unknown entry kind");
  }
  return true;
}

void TraceTapeReader::replay(EngineObserver& to) {
  while (next(record_)) obs::replay(record_, to);
}

}  // namespace synran::obs
