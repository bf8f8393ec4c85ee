// Tests for the round log an EngineObserver records and the test-side §3.1
// bookkeeping checks over it, plus round-driven property tests across
// protocols and adversaries.
#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/basic.hpp"
#include "adversary/coinbias.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/synran.hpp"
#include "round_invariants.hpp"
#include "runner/experiment.hpp"
#include "runner/narrate.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

using testing_support::check_round_invariants;

RoundLog record_run(const ProcessFactory& factory, Adversary& adversary,
                    std::uint32_t n, std::uint32_t t, std::uint64_t seed,
                    InputPattern pattern = InputPattern::Half) {
  RoundLog log;
  EngineOptions opts;
  opts.t_budget = t;
  opts.seed = seed;
  opts.max_rounds = 50000;
  opts.observer = &log;
  Xoshiro256 rng(seed);
  const auto inputs = make_inputs(n, pattern, rng);
  const auto res = run_once(factory, inputs, adversary, opts);
  EXPECT_TRUE(res.terminated);
  return log;
}

std::uint32_t total_crashes(const RoundLog& log) {
  std::uint32_t acc = 0;
  for (const auto& r : log.rounds()) acc += r.crashes;
  return acc;
}

TEST(TraceTest, RecordsBasicShape) {
  SynRanFactory factory;
  NoAdversary none;
  const RoundLog log = record_run(factory, none, 16, 0, 1);
  ASSERT_FALSE(log.rounds().empty());
  EXPECT_EQ(log.info().n, 16u);
  EXPECT_EQ(log.rounds().front().round, 1u);
  EXPECT_EQ(log.rounds().front().alive, 16u);
  EXPECT_EQ(log.rounds().front().senders, 16u);
  EXPECT_EQ(total_crashes(log), 0u);
}

TEST(TraceTest, CountsCrashesAndComposition) {
  SynRanFactory factory;
  StaticCrashAdversary adv({{1, 0, {}}, {2, 1, {}}});
  const RoundLog log = record_run(factory, adv, 12, 2, 3);
  EXPECT_EQ(total_crashes(log), 2u);
  std::uint32_t max_per_round = 0;
  for (const auto& r : log.rounds())
    max_per_round = std::max(max_per_round, r.crashes);
  EXPECT_EQ(max_per_round, 1u);
  // Half-pattern round 1: six 1-payloads, six 0-payloads.
  EXPECT_EQ(log.rounds().front().ones, 6u);
  EXPECT_EQ(log.rounds().front().zeros, 6u);
}

TEST(TraceInvariantsTest, CleanRunsPass) {
  SynRanFactory synran;
  FloodMinFactory flood({4, false});
  NoAdversary none;
  for (const ProcessFactory* f :
       {static_cast<const ProcessFactory*>(&synran),
        static_cast<const ProcessFactory*>(&flood)}) {
    const auto report = check_round_invariants(record_run(*f, none, 10, 0, 7));
    EXPECT_TRUE(report.ok) << report.first();
  }
}

TEST(TraceInvariantsTest, HoldAcrossAdversariesAndSeeds) {
  SynRanFactory factory;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    {
      RandomCrashAdversary adv({2, 0.7, seed});
      const auto report =
          check_round_invariants(record_run(factory, adv, 24, 12, seed));
      EXPECT_TRUE(report.ok) << "random seed " << seed << ": "
                             << report.first();
    }
    {
      CoinBiasAdversary adv({0.55, true, seed});
      const auto report =
          check_round_invariants(record_run(factory, adv, 24, 23, seed));
      EXPECT_TRUE(report.ok) << "coinbias seed " << seed << ": "
                             << report.first();
    }
  }
}

TEST(TraceInvariantsTest, DetectsCorruptedTraces) {
  SynRanFactory factory;
  NoAdversary none;
  const RoundLog log = record_run(factory, none, 8, 0, 1);
  const auto& tr = log.rounds();
  ASSERT_GE(tr.size(), 2u);
  const auto check = [&](const std::vector<obs::RoundObservation>& rounds) {
    return check_round_invariants(log.info(), rounds);
  };
  EXPECT_TRUE(check(tr).ok);

  {
    auto bad = tr;
    bad[1].alive = bad[0].alive + 1;  // resurrection
    EXPECT_FALSE(check(bad).ok);
  }
  {
    auto bad = tr;
    bad[1].halted = 0;
    bad[0].halted = 5;  // halted shrank
    EXPECT_FALSE(check(bad).ok);
  }
  {
    auto bad = tr;
    bad[0].crashes = log.info().t_budget + 1;  // over budget
    EXPECT_FALSE(check(bad).ok);
  }
  {
    auto bad = tr;
    bad[0].senders = bad[0].alive + 3;  // ghost senders
    EXPECT_FALSE(check(bad).ok);
  }
  {
    auto bad = tr;
    bad[1].budget_left += 1;  // budget that was never spent comes back
    EXPECT_FALSE(check(bad).ok);
  }
  {
    auto bad = tr;
    bad[0].ones = bad[0].senders + 1;  // more 1-payloads than senders
    EXPECT_FALSE(check(bad).ok);
  }
}

TEST(TraceTest, SynRanTrafficCompositionIsConsistent) {
  // In every recorded round, ones + zeros must equal senders as long as no
  // process is in the deterministic stage (each probabilistic payload
  // carries exactly one value bit).
  SynRanFactory factory;
  CoinBiasAdversary adv({0.55, true, 11});
  const RoundLog log = record_run(factory, adv, 32, 16, 13);
  for (const auto& r : log.rounds()) {
    if (r.deterministic > 0) continue;
    EXPECT_EQ(r.ones + r.zeros, r.senders) << "round " << r.round;
  }
}

TEST(TraceTest, StallKeepsCollapsingCounts) {
  // Against all-1 inputs with the stall rule on, the adversary must keep
  // the sender count collapsing (Lemma 4.1's 10% rule) — visible as a
  // strictly decreasing sender sequence while budget remains.
  SynRanFactory factory;
  CoinBiasAdversary adv({0.55, true, 5});
  const RoundLog log =
      record_run(factory, adv, 40, 39, 9, InputPattern::AllOne);
  const auto& tr = log.rounds();
  ASSERT_GE(tr.size(), 3u);
  EXPECT_GT(total_crashes(log), 0u);
  bool decreased = false;
  for (std::size_t i = 1; i < tr.size(); ++i)
    if (tr[i].senders < tr[i - 1].senders) decreased = true;
  EXPECT_TRUE(decreased);
}

}  // namespace
}  // namespace synran
