// CoinBiasAdversary — the executable counterpart of the paper's lower-bound
// adversary (§3), specialized to counted-threshold protocols (SynRan and its
// symmetric ablation).
//
// The paper's adversary keeps the execution bivalent/null-valent by biasing
// each round's collective coin with ≤ 4√(n·ln n)+1 crashes. Evaluating exact
// valencies is infeasible at scale, so this strategy attacks the same
// structural levers the §4 analysis identifies:
//
//   * If this round's 1-count exceeds the 6/10 proposal threshold, crash the
//     surplus 1-senders (hiding their messages entirely) so receivers stay in
//     the coin-flip window — the "expected √(p·log p)/16 kills per block"
//     regime of Lemma 4.6.
//   * If the 1-count falls below the 5/10 threshold (too many zeros), the
//     only counter — because thresholds compare against the *previous*
//     round's count — is the Z=0 rule: crash every 0-sender and deliver
//     their messages to only half of the receivers. The hidden half sees
//     Z=0 and must propose 1, keeping both values alive (the paper's
//     "fail p/2 with probability 1/2" case).
//   * Optionally, once the protocol still reaches unanimity, keep killing
//     >10% of survivors inside the halting rule's window (Lemma 4.1's
//     "must fail 1/10 of the remaining processes every 4 rounds") to stall
//     the STOP rule.
//
// The adversary respects a per-round cap when the engine sets one; with cap
// 4√(n·ln n)+1 it is a member of the paper's adversary class B.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/adversary.hpp"

namespace synran {

struct CoinBiasOptions {
  /// Fraction of N^{r-1} the adversary steers the 1-count toward when
  /// trimming a 1-surplus; must lie strictly inside (0.5, 0.6].
  double target_ratio = 0.55;
  /// Keep stalling via the 10%-kill rule after unanimity is reached.
  bool stall_after_unanimity = true;
  /// Seed for tie-breaking/victim shuffling.
  std::uint64_t seed = 11;
};

class CoinBiasAdversary final : public Adversary {
 public:
  explicit CoinBiasAdversary(CoinBiasOptions opts = {})
      : opts_(opts), rng_(opts.seed) {}

  void begin(std::uint32_t n, std::uint32_t t_budget) override;
  FaultPlan plan_round(const WorldView& world) override;
  const char* name() const override { return "coinbias"; }

  /// Crashes spent so far across the execution (for E8's budget traces).
  std::uint32_t crashes_spent() const { return crashes_spent_; }

  /// Predicted N^{r-1} per process after the latest plan_round: the message
  /// count that plan leaves each receiver (alive, not halted, not crashed
  /// by it). Entries of other processes keep their earlier value.
  const std::vector<std::uint32_t>& predicted_counts() const {
    return last_count_;
  }

 private:
  void note_deliveries(const WorldView& world, const FaultPlan& plan,
                       std::uint32_t senders);

  CoinBiasOptions opts_;
  Xoshiro256 rng_;
  /// Predicted N^{r-1} per receiver (the adversary has full information and
  /// computes the counts its own plan leaves, in closed form).
  std::vector<std::uint32_t> last_count_;
  std::uint32_t crashes_spent_ = 0;
  bool split_parity_ = false;  ///< alternates which half gets hidden zeros
};

}  // namespace synran
