#include "adversary/omission.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace synran {

void ChaosAdversary::begin(std::uint32_t n, std::uint32_t t_budget) {
  SYNRAN_REQUIRE(opts_.drop_rate >= 0.0 && opts_.drop_rate <= 1.0,
                 "drop_rate must lie in [0, 1]");
  rng_ = Xoshiro256(opts_.seed);
  omissions_spent_ = 0;
  if (inner_ != nullptr) inner_->begin(n, t_budget);
}

FaultPlan ChaosAdversary::plan_round(const WorldView& world) {
  FaultPlan plan;
  if (inner_ != nullptr) plan = inner_->plan_round(world);
  std::uint32_t budget = world.omission_round_budget();
  if (budget == 0 || opts_.drop_rate <= 0.0) return plan;

  const std::uint32_t n = world.n();
  DynBitset crashed_now(n);
  for (const auto& c : plan.crashes) crashed_now.set(c.victim);

  for (ProcessId s = 0; s < n && budget > 0; ++s) {
    if (!world.sending(s) || crashed_now.test(s)) continue;
    DynBitset drop(n);
    bool any = false;
    for (ProcessId r = 0; r < n; ++r) {
      if (r == s) continue;  // self-delivery is not a network link
      if (rng_.uniform() < opts_.drop_rate) {
        drop.set(r);
        any = true;
      }
    }
    if (!any) continue;
    OmissionDirective o;
    o.sender = s;
    o.drop_for = std::move(drop);
    plan.omissions.push_back(std::move(o));
    ++omissions_spent_;
    --budget;
  }
  return plan;
}

void OmissionAdversary::begin(std::uint32_t n, std::uint32_t /*t_budget*/) {
  rng_ = Xoshiro256(opts_.seed);
  last_count_.assign(n, n);  // the paper's N^0 = n convention
  omissions_spent_ = 0;
  split_parity_ = false;
}

FaultPlan OmissionAdversary::plan_round(const WorldView& world) {
  SYNRAN_REQUIRE(opts_.target_ratio > 0.5 && opts_.target_ratio <= 0.6,
                 "target_ratio must lie in the coin-flip window (0.5, 0.6]");
  const std::uint32_t n = world.n();
  FaultPlan plan;

  // Classify this round's senders by the value their message supports,
  // exactly as CoinBiasAdversary does. Deterministic-stage senders are left
  // alone: once the flooding stage is reached, hiding messages can no longer
  // extend the execution.
  std::vector<ProcessId> one_senders, zero_senders;
  std::uint32_t det_senders = 0, senders = 0;
  for (ProcessId i = 0; i < n; ++i) {
    const auto p = world.payload(i);
    if (!p.has_value()) continue;
    ++senders;
    if (*p & payload::kDeterministicFlag) {
      ++det_senders;
      continue;
    }
    if (payload::supports(*p, Bit::One))
      one_senders.push_back(i);
    else
      zero_senders.push_back(i);
  }

  const std::uint32_t budget = world.omission_round_budget();
  if (budget == 0 || senders == 0 || det_senders == senders) {
    note_deliveries(world, plan, senders);
    return plan;
  }

  // Receiver-side N^{r-1} bounds among processes that will digest this round.
  std::uint32_t np_min = 0, np_max = 0;
  bool first = true;
  for (ProcessId i = 0; i < n; ++i) {
    if (!world.alive().test(i) || world.halted().test(i)) continue;
    const std::uint32_t c = last_count_[i];
    if (first) {
      np_min = np_max = c;
      first = false;
    } else {
      np_min = std::min(np_min, c);
      np_max = std::max(np_max, c);
    }
  }
  if (first) {
    note_deliveries(world, plan, senders);
    return plan;
  }

  const std::uint64_t o = one_senders.size();
  const std::uint64_t z = zero_senders.size();

  if (o != 0 && z != 0 && 10 * o > 6 * static_cast<std::uint64_t>(np_min)) {
    // 1-surplus: suppress the surplus 1-senders for most receivers so the
    // visible 1-count falls back into the coin-flip window. A ~20% reserve
    // group keeps seeing them (and re-proposes 1 next round) — the same
    // standing-reserve trick as CoinBias, minus the corpses.
    const auto target = static_cast<std::uint64_t>(
        opts_.target_ratio * static_cast<double>(np_min));
    const std::uint64_t surplus = o > target ? o - target : 0;
    const std::uint32_t hides = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({surplus, budget, o}));
    if (hides > 0) {
      DynBitset hidden_from(n);  // everyone except the reserve group
      std::uint32_t tick = split_parity_ ? 0 : 2;  // rotate the group
      for (ProcessId i = 0; i < n; ++i) {
        if (!world.alive().test(i) || world.halted().test(i)) continue;
        if (tick % 5 != 0) hidden_from.set(i);  // reserve keeps ~20%
        ++tick;
      }
      split_parity_ = !split_parity_;
      for (std::uint32_t k = 0; k < hides; ++k) {
        const std::size_t j = k + rng_.below(one_senders.size() - k);
        std::swap(one_senders[k], one_senders[j]);
        OmissionDirective d;
        d.sender = one_senders[k];
        d.drop_for = hidden_from;
        plan.omissions.push_back(std::move(d));
      }
    }
  } else if (o != 0 && z != 0 &&
             10 * o < 5 * static_cast<std::uint64_t>(np_max)) {
    // 0-surplus: thresholds compare against the *previous* round's count, so
    // the only lever is the Z=0 split — hide every zero-sender from half the
    // receivers, who then must propose 1. Feasible only when the zero side
    // fits in this round's omission budget.
    if (z <= budget) {
      DynBitset half(n);
      bool tick = split_parity_;
      for (ProcessId i = 0; i < n; ++i) {
        if (!world.alive().test(i) || world.halted().test(i)) continue;
        if (tick) half.set(i);
        tick = !tick;
      }
      split_parity_ = !split_parity_;
      for (ProcessId v : zero_senders) {
        OmissionDirective d;
        d.sender = v;
        d.drop_for = half;
        plan.omissions.push_back(std::move(d));
      }
    }
  }
  // Unanimity among probabilistic senders is a lost cause for a pure
  // omission attacker: the STOP rule watches the *message count*, which
  // omissions can only dent for one round at a time. Stand down.

  omissions_spent_ += static_cast<std::uint32_t>(plan.omission_count());
  note_deliveries(world, plan, senders);
  return plan;
}

void OmissionAdversary::note_deliveries(const WorldView& world,
                                        const FaultPlan& plan,
                                        std::uint32_t senders) {
  // Predict the N^{r-1} this round leaves each receiver, so next round's
  // thresholds use the true counts. Every omission issued above shares one
  // drop_for mask (`hidden_from` or `half`), so a receiver hears every
  // sender except the k suppressed ones if the mask holds it: O(n), no
  // delivery replay.
  const auto k = static_cast<std::uint32_t>(plan.omission_count());
  const DynBitset* shared = k != 0 ? &plan.omissions.front().drop_for : nullptr;
  for (const auto& o : plan.omissions) SYNRAN_CHECK(o.drop_for == *shared);
  DynBitset receivers = world.alive();
  world.halted().for_each_set([&](std::size_t i) { receivers.reset(i); });
  receivers.for_each_set([&](std::size_t i) {
    last_count_[i] = senders - (shared != nullptr && shared->test(i) ? k : 0);
  });
}

}  // namespace synran
