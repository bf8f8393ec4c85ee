#include "adversary/coinbias.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace synran {

void CoinBiasAdversary::begin(std::uint32_t n, std::uint32_t /*t_budget*/) {
  rng_ = Xoshiro256(opts_.seed);
  last_count_.assign(n, n);  // the paper's N^0 = n convention
  crashes_spent_ = 0;
  split_parity_ = false;
}

FaultPlan CoinBiasAdversary::plan_round(const WorldView& world) {
  SYNRAN_REQUIRE(opts_.target_ratio > 0.5 && opts_.target_ratio <= 0.6,
                 "target_ratio must lie in the coin-flip window (0.5, 0.6]");
  const std::uint32_t n = world.n();
  FaultPlan plan;

  // Classify this round's senders by the value their message supports.
  // Deterministic-stage senders are left alone: once the flooding stage is
  // reached, crashes can no longer extend the execution.
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

  const std::uint32_t budget = world.round_budget();
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

  const auto empty_crash = [&](ProcessId v) {
    CrashDirective c;
    c.victim = v;
    c.deliver_to = DynBitset(n);  // message reaches nobody
    plan.crashes.push_back(std::move(c));
  };

  if (o == 0 || z == 0) {
    // Unanimity among probabilistic senders: the threshold fight is lost
    // (Lemma 4.1). Optionally stall the STOP rule: it fires only when
    // N^{r-3} − N^r ≤ N^{r-2}/10, so keep the message count collapsing by
    // >10% per 3-round window — Lemma 4.1's "fail 1/10 of the remaining
    // processes every 4 rounds".
    if (opts_.stall_after_unanimity) {
      // The STOP rule compares N^{r-3} − N^r against N^{r-2}/10, and its
      // first firing window spans only two rounds of kills — so beating it
      // needs strictly more than N/20 kills per round.
      const std::uint32_t need = np_min / 20 + 1;
      const std::uint32_t kills = std::min<std::uint32_t>(
          {need, budget, static_cast<std::uint32_t>(o + z)});
      auto& pool = o != 0 ? one_senders : zero_senders;
      for (std::uint32_t k = 0; k < kills; ++k) {
        const std::size_t j = k + rng_.below(pool.size() - k);
        std::swap(pool[k], pool[j]);
        empty_crash(pool[k]);
      }
    }
  } else if (10 * o > 6 * static_cast<std::uint64_t>(np_min)) {
    // 1-surplus: trim the 1-count back into the coin-flip window for most
    // receivers. This is the recurring cost of Lemma 4.6 — the surplus
    // above the mean is Θ(√(p·log p)) with the probability the lemma needs.
    //
    // The trimmed messages are not wasted: they are still delivered to a
    // small receiver group B, which therefore keeps seeing O > 6N/10 and
    // proposes 1 next round. A standing 1-proposer reserve lifts the
    // expected coin count to mid-window, making the expensive 0-collapse
    // (the Z-split below) a large-deviation event instead of a fair-coin
    // one — the same crashes buy far more rounds.
    const auto target = static_cast<std::uint64_t>(
        opts_.target_ratio * static_cast<double>(np_min));
    const std::uint64_t surplus = o > target ? o - target : 0;
    const std::uint32_t kills = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({surplus, budget, o}));
    if (kills > 0) {
      DynBitset reserve(n);
      std::uint32_t tick = split_parity_ ? 0 : 2;  // rotate the group
      for (ProcessId i = 0; i < n; ++i) {
        if (!world.alive().test(i) || world.halted().test(i)) continue;
        if (tick % 5 == 0) reserve.set(i);  // ~20% of receivers
        ++tick;
      }
      split_parity_ = !split_parity_;
      for (std::uint32_t k = 0; k < kills; ++k) {
        const std::size_t j = k + rng_.below(one_senders.size() - k);
        std::swap(one_senders[k], one_senders[j]);
        CrashDirective c;
        c.victim = one_senders[k];
        c.deliver_to = reserve;
        plan.crashes.push_back(std::move(c));
      }
    }
  } else if (10 * o < 5 * static_cast<std::uint64_t>(np_max)) {
    // 0-surplus. Thresholds compare O^r against the *previous* count, so
    // crashing 0-senders cannot raise anyone's ratio — the only lever is the
    // one-side-bias rule itself: hide *all* zeros from half the receivers so
    // that half sees Z=0 and must propose 1. Feasible only when the zero
    // side fits in the budget (the paper's "fail p/2 with probability 1/2").
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
        CrashDirective c;
        c.victim = v;
        c.deliver_to = half;
        plan.crashes.push_back(std::move(c));
      }
    }
  }
  // Otherwise every receiver sits inside the coin-flip window already; let
  // the coins fall and pay again next round.

  crashes_spent_ += static_cast<std::uint32_t>(plan.crash_count());
  note_deliveries(world, plan, senders);
  return plan;
}

void CoinBiasAdversary::note_deliveries(const WorldView& world,
                                        const FaultPlan& plan,
                                        std::uint32_t senders) {
  // Predict the N^{r-1} this round leaves each receiver, so next round's
  // thresholds use the true counts. Every crash issued above shares one
  // deliver_to mask (`reserve` or `half`) or reaches nobody, so a receiver
  // hears every surviving sender plus all k victims if the mask holds it:
  // O(n), no delivery replay.
  const auto k = static_cast<std::uint32_t>(plan.crash_count());
  const DynBitset* shared = k != 0 ? &plan.crashes.front().deliver_to : nullptr;
  DynBitset receivers = world.alive();
  for (const auto& c : plan.crashes) {
    SYNRAN_CHECK(c.deliver_to == *shared);
    receivers.reset(c.victim);
  }
  world.halted().for_each_set([&](std::size_t i) { receivers.reset(i); });
  receivers.for_each_set([&](std::size_t i) {
    last_count_[i] =
        senders - k + (shared != nullptr && shared->test(i) ? k : 0);
  });
}

}  // namespace synran
