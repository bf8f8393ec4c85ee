#include "sim/execution.hpp"

#include "net/fabric.hpp"

namespace synran {

ExecutionState::ExecutionState(const ExecutionState& other) { *this = other; }

ExecutionState& ExecutionState::operator=(const ExecutionState& other) {
  if (this == &other) return *this;
  n_ = other.n_;
  procs_.resize(other.procs_.size());
  for (std::size_t i = 0; i < procs_.size(); ++i)
    procs_[i] = other.procs_[i]->clone();
  alive_ = other.alive_;
  halted_ = other.halted_;
  active_ = other.active_;
  payloads_ = other.payloads_;
  receipts_ = other.receipts_;
  have_receipt_ = other.have_receipt_;
  budget_left_ = other.budget_left_;
  return *this;
}

void ExecutionState::start(const ProcessFactory& factory,
                           std::span<const Bit> inputs, std::uint32_t budget) {
  const auto n = static_cast<std::uint32_t>(inputs.size());
  n_ = n;
  if (alive_.size() != n) {
    alive_ = DynBitset(n, true);
    halted_ = DynBitset(n, false);
    payloads_.assign(n, std::nullopt);
    receipts_.assign(n, Receipt{});
    have_receipt_.assign(n, 0);
    procs_.resize(n);
  } else {
    alive_.set_all();
    halted_.clear_all();
    for (auto& p : payloads_) p.reset();
    for (auto& h : have_receipt_) h = 0;
  }
  for (std::uint32_t i = 0; i < n; ++i)
    procs_[i] = factory.make(i, n, inputs[i]);
  budget_left_ = budget;
}

ExecutionState ExecutionState::fork(const WorldView& world) {
  ExecutionState s;
  s.n_ = world.n();
  s.procs_.reserve(s.n_);
  for (const auto& p : world.processes()) s.procs_.push_back(p->clone());
  s.alive_ = world.alive();
  s.halted_ = world.halted();
  s.payloads_.assign(world.payloads().begin(), world.payloads().end());
  s.receipts_.assign(s.n_, Receipt{});
  s.have_receipt_.assign(s.n_, 0);
  s.budget_left_ = world.budget_left();
  return s;
}

DeliveryTally ExecutionState::phase_b(const FaultPlan& plan) {
  SYNRAN_CHECK_MSG(plan.crash_count() <= budget_left_,
                   "plan crashes more processes than the budget has left");
  active_ = alive_;
  for (const auto& c : plan.crashes) active_.reset(c.victim);
  halted_.for_each_set([&](std::size_t i) { active_.reset(i); });

  const auto delivered =
      synran::deliver(n_, RoundTraffic{payloads_, &plan}, active_);
  DeliveryTally tally;
  active_.for_each_set([&](std::size_t i) {
    receipts_[i] = delivered[i];
    have_receipt_[i] = 1;
    tally.delivered += delivered[i].count;
  });
  for (const auto& o : plan.omissions)
    tally.omitted += o.drop_for.count_and(active_);
  for (const auto& cd : plan.corruptions)
    for (const auto& fg : cd.forgeries)
      if (active_.test(fg.target)) ++tally.corrupted;
  return tally;
}

void ExecutionState::commit(const FaultPlan& plan) {
  budget_left_ -= static_cast<std::uint32_t>(plan.crash_count());
  for (const auto& c : plan.crashes) alive_.reset(c.victim);
}

bool ExecutionState::all_decided() const {
  for (std::uint32_t i = 0; i < n_; ++i)
    if (alive_.test(i) && !procs_[i]->decided()) return false;
  return true;
}

SurvivorVerdict ExecutionState::verdict() const {
  SurvivorVerdict v;
  bool agree = true;
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (!alive_.test(i)) continue;
    if (!procs_[i]->decided()) {
      v.all_decided = false;
      continue;
    }
    const Bit d = procs_[i]->decision();
    if (!v.has_decision) {
      v.decision = d;
      v.has_decision = true;
    } else if (d != v.decision) {
      agree = false;
    }
  }
  v.agreement = v.has_decision && agree;
  return v;
}

}  // namespace synran
