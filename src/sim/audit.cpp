#include "sim/audit.hpp"

#include <sstream>

#include "common/check.hpp"
#include "sim/process.hpp"

namespace synran {

void RunAuditor::begin(std::uint32_t n, std::uint32_t t_budget,
                       std::uint32_t per_round_cap,
                       std::uint32_t omission_budget,
                       std::uint32_t omission_round_cap,
                       std::uint32_t byzantine_budget,
                       std::uint32_t byzantine_round_cap) {
  SYNRAN_REQUIRE(n >= 1, "auditor needs at least one process");
  n_ = n;
  t_budget_ = t_budget;
  per_round_cap_ = per_round_cap;
  cum_crashes_ = 0;
  omission_budget_ = omission_budget;
  omission_round_cap_ = omission_round_cap;
  cum_omissions_ = 0;
  byzantine_budget_ = byzantine_budget;
  byzantine_round_cap_ = byzantine_round_cap;
  cum_corruptions_ = 0;
  crashed_ = DynBitset(n);
  crash_round_.assign(n, 0);
  was_decided_.assign(n, false);
  decision_was_.assign(n, Bit::Zero);
  was_halted_.assign(n, false);
}

void RunAuditor::fail(Round round, const std::string& what) const {
  std::ostringstream os;
  os << "audit: round " << round << ": " << what;
  throw InvariantError(os.str());
}

void RunAuditor::on_phase_a(
    Round round, std::span<const std::optional<Payload>> payloads,
    const DynBitset& halted,
    std::span<const std::unique_ptr<Process>> processes) {
  SYNRAN_CHECK_MSG(n_ > 0, "RunAuditor used before begin()");
  if (payloads.size() != n_ || halted.size() != n_ ||
      processes.size() != n_) {
    fail(round, "phase-A views disagree about the process count");
  }
  for (std::uint32_t i = 0; i < n_; ++i) {
    const Process& p = *processes[i];
    if (crashed_.test(i)) {
      if (payloads[i].has_value()) {
        std::ostringstream os;
        os << "process " << i << " broadcast a payload although it was "
           << "crashed in round " << crash_round_[i]
           << " — the dead must stay silent";
        fail(round, os.str());
      }
      continue;  // internal state of the dead is unobservable in the model
    }
    if (was_halted_[i]) {
      if (!halted.test(i)) {
        std::ostringstream os;
        os << "process " << i << " resumed after halting — STOP is final";
        fail(round, os.str());
      }
      if (!p.decided() || p.decision() != decision_was_[i]) {
        std::ostringstream os;
        os << "halted process " << i << " changed its verdict (halted with "
           << "decision " << to_int(decision_was_[i]) << ")";
        fail(round, os.str());
      }
    }
    if (halted.test(i)) {
      if (payloads[i].has_value()) {
        std::ostringstream os;
        os << "halted process " << i << " kept broadcasting";
        fail(round, os.str());
      }
      if (!p.decided()) {
        std::ostringstream os;
        os << "process " << i << " halted without deciding";
        fail(round, os.str());
      }
    }
    if (strict_decisions_ && was_decided_[i]) {
      if (!p.decided()) {
        std::ostringstream os;
        os << "process " << i << " rescinded its decision under the "
           << "strict (latching) policy";
        fail(round, os.str());
      }
      if (p.decision() != decision_was_[i]) {
        std::ostringstream os;
        os << "process " << i << " flipped its decision from "
           << to_int(decision_was_[i]) << " to " << to_int(p.decision());
        fail(round, os.str());
      }
    }
    was_decided_[i] = p.decided();
    if (p.decided()) decision_was_[i] = p.decision();
    was_halted_[i] = halted.test(i);
  }
}

void RunAuditor::on_plan(Round round, const FaultPlan& plan,
                         std::span<const std::optional<Payload>> payloads) {
  SYNRAN_CHECK_MSG(n_ > 0, "RunAuditor used before begin()");
  const auto k = static_cast<std::uint32_t>(plan.crash_count());
  if (per_round_cap_ != 0 && k > per_round_cap_) {
    std::ostringstream os;
    os << "plan crashes " << k << " processes but the per-round cap is "
       << per_round_cap_;
    fail(round, os.str());
  }
  if (cum_crashes_ + k > t_budget_) {
    std::ostringstream os;
    os << "plan crashes " << k << " more processes on top of "
       << cum_crashes_ << " already crashed, exceeding the fault budget t="
       << t_budget_;
    fail(round, os.str());
  }
  DynBitset in_plan(n_);
  for (const auto& c : plan.crashes) {
    if (c.victim >= n_) {
      std::ostringstream os;
      os << "crash victim " << c.victim << " is not a process (n=" << n_
         << ")";
      fail(round, os.str());
    }
    if (crashed_.test(c.victim)) {
      std::ostringstream os;
      os << "process " << c.victim << " re-crashed — it already failed in "
         << "round " << crash_round_[c.victim];
      fail(round, os.str());
    }
    if (in_plan.test(c.victim)) {
      std::ostringstream os;
      os << "process " << c.victim << " appears twice in one fault plan";
      fail(round, os.str());
    }
    if (!payloads[c.victim].has_value()) {
      std::ostringstream os;
      os << "plan crashes process " << c.victim
         << ", which is not sending this round (crashing the silent "
         << "buys the adversary nothing and is outside the model)";
      fail(round, os.str());
    }
    if (c.deliver_to.size() != n_) {
      std::ostringstream os;
      os << "deliver_to mask for victim " << c.victim << " has size "
         << c.deliver_to.size() << ", expected n=" << n_;
      fail(round, os.str());
    }
    in_plan.set(c.victim);
  }
  const auto m = static_cast<std::uint32_t>(plan.omission_count());
  if (omission_round_cap_ != 0 && m > omission_round_cap_) {
    std::ostringstream os;
    os << "plan issues " << m << " omission directives but the per-round "
       << "omission cap is " << omission_round_cap_;
    fail(round, os.str());
  }
  if (cum_omissions_ + m > omission_budget_) {
    std::ostringstream os;
    os << "plan issues " << m << " omission directives on top of "
       << cum_omissions_ << " already spent, exceeding the omission budget "
       << omission_budget_
       << (omission_budget_ == 0
               ? " (omissions are forbidden under the fail-stop model "
                 "unless EngineOptions grants a budget)"
               : "");
    fail(round, os.str());
  }
  DynBitset omitted(n_);
  for (const auto& o : plan.omissions) {
    if (o.sender >= n_) {
      std::ostringstream os;
      os << "omission sender " << o.sender << " is not a process (n=" << n_
         << ")";
      fail(round, os.str());
    }
    if (in_plan.test(o.sender)) {
      std::ostringstream os;
      os << "process " << o.sender << " is both crashed and omitted in one "
         << "fault plan — a crash's deliver_to already fixes its delivery";
      fail(round, os.str());
    }
    if (omitted.test(o.sender)) {
      std::ostringstream os;
      os << "omission sender " << o.sender
         << " appears twice in one fault plan";
      fail(round, os.str());
    }
    if (!payloads[o.sender].has_value()) {
      std::ostringstream os;
      os << "plan omits messages of process " << o.sender
         << ", which is not sending this round (an omission for a "
         << "non-sender suppresses nothing and is outside the model)";
      fail(round, os.str());
    }
    if (o.drop_for.size() != n_) {
      std::ostringstream os;
      os << "drop_for mask for omission sender " << o.sender << " has size "
         << o.drop_for.size() << ", expected n=" << n_;
      fail(round, os.str());
    }
    omitted.set(o.sender);
  }
  const auto b = static_cast<std::uint32_t>(plan.corruption_count());
  if (byzantine_round_cap_ != 0 && b > byzantine_round_cap_) {
    std::ostringstream os;
    os << "plan issues " << b << " corruption directives but the per-round "
       << "corruption cap is " << byzantine_round_cap_;
    fail(round, os.str());
  }
  if (cum_corruptions_ + b > byzantine_budget_) {
    std::ostringstream os;
    os << "plan issues " << b << " corruption directives on top of "
       << cum_corruptions_ << " already spent, exceeding the byzantine "
       << "budget " << byzantine_budget_
       << (byzantine_budget_ == 0
               ? " (corrupted values are forbidden under the fail-stop model "
                 "unless EngineOptions grants a byzantine budget)"
               : "");
    fail(round, os.str());
  }
  DynBitset corrupted(n_);
  DynBitset forged(n_);
  for (const auto& cd : plan.corruptions) {
    if (cd.sender >= n_) {
      std::ostringstream os;
      os << "corruption sender " << cd.sender << " is not a process (n="
         << n_ << ")";
      fail(round, os.str());
    }
    if (in_plan.test(cd.sender)) {
      std::ostringstream os;
      os << "process " << cd.sender << " is both crashed and corrupted in "
         << "one fault plan — a crash's deliver_to already fixes its "
         << "delivery";
      fail(round, os.str());
    }
    if (omitted.test(cd.sender)) {
      std::ostringstream os;
      os << "process " << cd.sender << " is both omitted and corrupted in "
         << "one fault plan — an omitted link has no value left to forge";
      fail(round, os.str());
    }
    if (corrupted.test(cd.sender)) {
      std::ostringstream os;
      os << "corruption sender " << cd.sender
         << " appears twice in one fault plan";
      fail(round, os.str());
    }
    if (!payloads[cd.sender].has_value()) {
      std::ostringstream os;
      os << "plan corrupts messages of process " << cd.sender
         << ", which is not sending this round (there is no message whose "
         << "value could be forged)";
      fail(round, os.str());
    }
    forged.clear_all();
    for (const auto& fg : cd.forgeries) {
      if (fg.target >= n_) {
        std::ostringstream os;
        os << "forgery target " << fg.target << " of corruption sender "
           << cd.sender << " is not a process (n=" << n_ << ")";
        fail(round, os.str());
      }
      if (forged.test(fg.target)) {
        std::ostringstream os;
        os << "forgery target " << fg.target << " of corruption sender "
           << cd.sender << " appears twice in one directive";
        fail(round, os.str());
      }
      forged.set(fg.target);
    }
    corrupted.set(cd.sender);
  }
  for (const auto& c : plan.crashes) {
    crashed_.set(c.victim);
    crash_round_[c.victim] = round;
  }
  cum_crashes_ += k;
  cum_omissions_ += m;
  cum_corruptions_ += b;
}

void RunAuditor::on_deliveries(
    Round round, const FaultPlan& plan,
    std::span<const std::optional<Payload>> payloads,
    const DynBitset& active_receivers, std::uint64_t delivered) {
  SYNRAN_CHECK_MSG(n_ > 0, "RunAuditor used before begin()");
  DynBitset crashed_now(n_);
  for (const auto& c : plan.crashes) crashed_now.set(c.victim);

  std::uint64_t full_senders = 0;
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (payloads[i].has_value() && !crashed_now.test(i)) ++full_senders;
  }
  std::uint64_t expected = full_senders * active_receivers.count();
  for (const auto& c : plan.crashes) {
    expected += c.deliver_to.count_and(active_receivers);
  }
  std::uint64_t omitted = 0;
  for (const auto& o : plan.omissions) {
    omitted += o.drop_for.count_and(active_receivers);
  }
  expected -= omitted;
  if (delivered != expected) {
    std::ostringstream os;
    os << "delivered " << delivered << " point-to-point messages but the "
       << "surviving-sender broadcast count is " << expected << " ("
       << full_senders << " full broadcasts to "
       << active_receivers.count() << " active receivers plus "
       << plan.crash_count() << " partial deliveries minus " << omitted
       << " omitted links)";
    fail(round, os.str());
  }
}

void AuditedAdversary::begin(std::uint32_t n, std::uint32_t t_budget) {
  auditor_.begin(n, t_budget, 0);
  begun_ = true;
  omission_budget_synced_ = false;
  inner_->begin(n, t_budget);
}

FaultPlan AuditedAdversary::plan_round(const WorldView& world) {
  SYNRAN_CHECK_MSG(begun_, "AuditedAdversary::plan_round before begin()");
  auditor_.set_per_round_cap(world.round_cap());
  auditor_.set_omission_round_cap(world.omission_round_cap());
  auditor_.set_byzantine_round_cap(world.corruption_round_cap());
  if (!omission_budget_synced_) {
    auditor_.set_omission_budget(world.omission_budget_left());
    auditor_.set_byzantine_budget(world.corruption_budget_left());
    omission_budget_synced_ = true;
  }
  if (world.budget_left() != auditor_.budget_left()) {
    std::ostringstream os;
    os << "audit: round " << world.round() << ": engine reports "
       << world.budget_left() << " crashes left but the audited spend "
       << "leaves " << auditor_.budget_left();
    throw InvariantError(os.str());
  }
  if (world.omission_budget_left() != auditor_.omission_budget_left()) {
    std::ostringstream os;
    os << "audit: round " << world.round() << ": engine reports "
       << world.omission_budget_left() << " omissions left but the audited "
       << "spend leaves " << auditor_.omission_budget_left();
    throw InvariantError(os.str());
  }
  if (world.corruption_budget_left() != auditor_.corruption_budget_left()) {
    std::ostringstream os;
    os << "audit: round " << world.round() << ": engine reports "
       << world.corruption_budget_left() << " corruptions left but the "
       << "audited spend leaves " << auditor_.corruption_budget_left();
    throw InvariantError(os.str());
  }
  auditor_.on_phase_a(world.round(), world.payloads(), world.halted(),
                      world.processes());
  FaultPlan plan = inner_->plan_round(world);
  auditor_.on_plan(world.round(), plan, world.payloads());
  return plan;
}

}  // namespace synran
