// Tests for the adversary implementations: schedule adherence, budget
// discipline, and the qualitative effects each strategy exists to produce.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "adversary/basic.hpp"
#include "adversary/byzantine.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/omission.hpp"
#include "adversary/valency.hpp"
#include "analysis/theory.hpp"
#include "net/fabric.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

std::vector<Bit> half_inputs(std::uint32_t n) {
  std::vector<Bit> inputs(n, Bit::Zero);
  for (std::uint32_t i = n / 2; i < n; ++i) inputs[i] = Bit::One;
  return inputs;
}

// ------------------------------------------------------------------ static

TEST(StaticCrashTest, ExecutesScheduleExactly) {
  StaticCrashAdversary adv({{1, 0, {}}, {2, 1, {2}}});
  FloodMinFactory factory({2, false});
  EngineOptions opts;
  opts.t_budget = 2;
  const auto res = run_once(factory, half_inputs(4), adv, opts);
  EXPECT_EQ(res.crashes_total, 2u);
  EXPECT_TRUE(res.crashed[0]);
  EXPECT_TRUE(res.crashed[1]);
  EXPECT_FALSE(res.crashed[2]);
  ASSERT_GE(res.crashes_per_round.size(), 2u);
  EXPECT_EQ(res.crashes_per_round[0], 1u);
  EXPECT_EQ(res.crashes_per_round[1], 1u);
}

TEST(StaticCrashTest, SkipsDeadAndRespectsBudget) {
  // Same victim scheduled twice, plus an entry beyond the budget.
  StaticCrashAdversary adv({{1, 0, {}}, {2, 0, {}}, {2, 1, {}}, {2, 2, {}}});
  FloodMinFactory factory({3, false});
  EngineOptions opts;
  opts.t_budget = 2;
  const auto res = run_once(factory, half_inputs(4), adv, opts);
  EXPECT_EQ(res.crashes_total, 2u);  // dead victim skipped, budget capped
}

TEST(StaticCrashTest, RejectsOutOfRangeRecipients) {
  StaticCrashAdversary adv({{1, 0, {9}}});
  FloodMinFactory factory({1, false});
  EngineOptions opts;
  opts.t_budget = 1;
  EXPECT_THROW(run_once(factory, half_inputs(4), adv, opts), ArgumentError);
}

// ------------------------------------------------------------------ random

TEST(RandomCrashTest, NeverExceedsBudgetAndKeepsProtocolSafe) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCrashAdversary adv({3, 0.8, seed});
    SynRanFactory factory;
    EngineOptions opts;
    opts.t_budget = 10;
    opts.seed = seed;
    opts.max_rounds = 5000;
    const auto res = run_once(factory, half_inputs(24), adv, opts);
    EXPECT_LE(res.crashes_total, 10u);
    EXPECT_TRUE(res.terminated) << "seed " << seed;
    EXPECT_TRUE(res.agreement) << "seed " << seed;
  }
}

TEST(RandomCrashTest, SeededReproducibility) {
  RandomCrashAdversary a1({2, 0.5, 77});
  RandomCrashAdversary a2({2, 0.5, 77});
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = 8;
  opts.seed = 3;
  const auto r1 = run_once(factory, half_inputs(16), a1, opts);
  const auto r2 = run_once(factory, half_inputs(16), a2, opts);
  EXPECT_EQ(r1.crashes_total, r2.crashes_total);
  EXPECT_EQ(r1.rounds_to_halt, r2.rounds_to_halt);
  EXPECT_EQ(r1.decision, r2.decision);
}

// ------------------------------------------------------------------- chain

TEST(ChainHidingTest, ForcesFloodMinThroughFullSchedule) {
  // n = 8, t = 5, exactly one 0 input: the chain hides the 0 for t rounds.
  const std::uint32_t n = 8, t = 5;
  std::vector<Bit> inputs(n, Bit::One);
  inputs[2] = Bit::Zero;

  ChainHidingAdversary adv;
  FloodMinFactory factory({t, false});
  EngineOptions opts;
  opts.t_budget = t;
  const auto res = run_once(factory, inputs, adv, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.crashes_total, t);
  // One crash per round, every round of the schedule.
  for (std::uint32_t r = 0; r < t; ++r)
    EXPECT_EQ(res.crashes_per_round[r], 1u) << "round " << r + 1;
  // The hidden 0 must still win: it reaches the last holder in round t and
  // is flooded in round t+1.
  EXPECT_EQ(res.decision, Bit::Zero);
}

TEST(ChainHidingTest, DelaysEarlyDecider) {
  const std::uint32_t n = 8, t = 5;
  std::vector<Bit> inputs(n, Bit::One);
  inputs[0] = Bit::Zero;

  // Without an adversary the early decider fixes its decision at round 2.
  FloodMinFactory factory({t, true});
  NoAdversary none;
  const auto fast = run_once(factory, inputs, none, {});
  EXPECT_EQ(fast.rounds_to_decision, 2u);

  // Under the chain, each round looks dirty, so the early rule cannot fire
  // before the chain runs out of budget.
  ChainHidingAdversary adv;
  EngineOptions opts;
  opts.t_budget = t;
  const auto slow = run_once(factory, inputs, adv, opts);
  EXPECT_TRUE(slow.agreement);
  EXPECT_GE(slow.rounds_to_decision, t);
}

TEST(ChainHidingTest, IdlesWithoutAUniqueHolder) {
  ChainHidingAdversary adv;
  FloodMinFactory factory({2, false});
  EngineOptions opts;
  opts.t_budget = 2;
  // Two zeros: no unique holder, the adversary must do nothing.
  std::vector<Bit> inputs{Bit::Zero, Bit::Zero, Bit::One, Bit::One};
  const auto res = run_once(factory, inputs, adv, opts);
  EXPECT_EQ(res.crashes_total, 0u);
}

// ---------------------------------------------------------------- coinbias

TEST(CoinBiasTest, RespectsPerRoundCapAndBudget) {
  const std::uint32_t n = 64;
  CoinBiasAdversary adv;
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = n / 2;
  opts.per_round_cap = static_cast<std::uint32_t>(theory::per_round_budget(n));
  opts.max_rounds = 20000;
  const auto res = run_once(factory, half_inputs(n), adv, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_LE(res.crashes_total, n / 2);
  for (auto c : res.crashes_per_round) EXPECT_LE(c, opts.per_round_cap);
}

TEST(CoinBiasTest, PreservesSafetyAcrossSeeds) {
  const std::uint32_t n = 48;
  SynRanFactory factory;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    CoinBiasAdversary adv({0.55, true, seed});
    EngineOptions opts;
    opts.t_budget = n - 1;
    opts.seed = seed * 31;
    opts.max_rounds = 50000;
    const auto res = run_once(factory, half_inputs(n), adv, opts);
    EXPECT_TRUE(res.terminated) << "seed " << seed;
    EXPECT_TRUE(res.agreement) << "seed " << seed;
  }
}

TEST(CoinBiasTest, DelaysSynRanBeyondAdversaryFreeBaseline) {
  const std::uint32_t n = 256;
  SynRanFactory factory;

  RepeatSpec spec;
  spec.n = n;
  spec.pattern = InputPattern::Half;
  spec.reps = 30;
  spec.seed = 5;
  spec.engine.max_rounds = 100000;

  const auto baseline =
      run_repeated(factory, no_adversary_factory(), spec);

  RepeatSpec adv_spec = spec;
  adv_spec.engine.t_budget = n - 1;
  const auto attacked = run_repeated(
      factory,
      [](std::uint64_t seed) {
        return std::make_unique<CoinBiasAdversary>(
            CoinBiasOptions{0.55, true, seed});
      },
      adv_spec);

  ASSERT_TRUE(baseline.all_safe());
  ASSERT_TRUE(attacked.all_safe());
  EXPECT_GT(attacked.rounds_to_decision().mean(),
            baseline.rounds_to_decision().mean() + 2.0);
}

TEST(CoinBiasTest, RejectsBadTargetRatio) {
  CoinBiasAdversary adv({0.7, true, 1});
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = 4;
  EXPECT_THROW(run_once(factory, half_inputs(8), adv, opts), ArgumentError);
}

// ---------------------------------------------------------- valency (MC)

TEST(ValencySamplingTest, SafeAndBudgetDisciplined) {
  const std::uint32_t n = 16;
  ValencySamplingOptions vopts;
  vopts.rollouts = 6;
  ValencySamplingAdversary adv(vopts);
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = 8;
  opts.per_round_cap = 4;
  opts.max_rounds = 5000;
  const auto res = run_once(factory, half_inputs(n), adv, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_LE(res.crashes_total, 8u);
  for (auto c : res.crashes_per_round) EXPECT_LE(c, 4u);
}

// ------------------------------------------- closed-form N^{r-1} prediction

/// What a PredictionProbe saw over one run.
struct ProbeTally {
  std::uint32_t rounds_with_directives = 0;
  std::uint32_t mismatches = 0;
  std::string first_mismatch;

  void expect_exact() const {
    EXPECT_EQ(mismatches, 0u) << first_mismatch;
    EXPECT_GT(rounds_with_directives, 0u) << "probe never saw a fault";
  }
};

/// Forwards to a counting adversary (CoinBias or OmissionAdversary) and,
/// after every plan_round, replays the plan that adversary just issued
/// through deliver_naive: its predicted N^{r-1} must equal the replayed
/// count of every receiver. Wrapped inside Chaos/Byzantine layers it still
/// sees only the inner adversary's own plan, which is what the prediction
/// covers.
template <typename Predictor>
class PredictionProbe final : public Adversary {
 public:
  PredictionProbe(Predictor inner, ProbeTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  void begin(std::uint32_t n, std::uint32_t t_budget) override {
    inner_.begin(n, t_budget);
  }

  FaultPlan plan_round(const WorldView& world) override {
    FaultPlan plan = inner_.plan_round(world);
    DynBitset receivers = world.alive();
    for (const auto& c : plan.crashes) receivers.reset(c.victim);
    world.halted().for_each_set([&](std::size_t i) { receivers.reset(i); });
    const RoundTraffic traffic{world.payloads(), &plan};
    const auto receipts = deliver_naive(world.n(), traffic, receivers);
    const auto& predicted = inner_.predicted_counts();
    receivers.for_each_set([&](std::size_t i) {
      if (predicted[i] == receipts[i].count) return;
      if (tally_.mismatches++ == 0) {
        std::ostringstream os;
        os << "round " << world.round() << " process " << i << ": predicted "
           << predicted[i] << ", replay " << receipts[i].count;
        tally_.first_mismatch = os.str();
      }
    });
    if (!plan.empty()) ++tally_.rounds_with_directives;
    return plan;
  }

  const char* name() const override { return inner_.name(); }

 private:
  Predictor inner_;
  ProbeTally& tally_;
};

template <typename Predictor>
std::unique_ptr<Adversary> probe(Predictor inner, ProbeTally& tally) {
  return std::make_unique<PredictionProbe<Predictor>>(std::move(inner),
                                                      tally);
}

EngineOptions prediction_options(std::uint32_t n, std::uint64_t seed) {
  EngineOptions opts;
  opts.t_budget = n - 1;
  opts.omission_budget = 40 * n;
  opts.seed = seed;
  opts.max_rounds = 20000;
  return opts;
}

TEST(CountPrediction, StandaloneAttackersMatchNaiveReplay) {
  SynRanFactory factory;
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    for (std::uint32_t n : {16u, 65u, 128u}) {
      const EngineOptions opts = prediction_options(n, seed);
      ProbeTally crashes, omissions;
      run_once(factory, half_inputs(n),
               *probe(CoinBiasAdversary({0.55, true, seed}), crashes), opts);
      run_once(factory, half_inputs(n),
               *probe(OmissionAdversary({0.55, seed}), omissions), opts);
      crashes.expect_exact();
      omissions.expect_exact();
    }
  }
}

TEST(CountPrediction, AttackersUnderChaosAndByzantineLayers) {
  SynRanFactory factory;
  const std::uint32_t n = 96;
  for (std::uint64_t seed : {1, 2, 3}) {
    EngineOptions opts = prediction_options(n, seed);
    opts.omission_budget = 100000;
    opts.byzantine_budget = 100000;

    ProbeTally under_chaos, under_both, omission_under_byz;
    ChaosAdversary chaos(
        {0.05, seed},
        probe(CoinBiasAdversary({0.55, true, seed}), under_chaos));
    run_once(factory, half_inputs(n), chaos, opts);
    ByzantineAdversary both(
        {0.05, seed},
        std::make_unique<ChaosAdversary>(
            ChaosOptions{0.02, seed},
            probe(CoinBiasAdversary({0.55, true, seed}), under_both)));
    run_once(factory, half_inputs(n), both, opts);
    ByzantineAdversary byz(
        {0.05, seed},
        probe(OmissionAdversary({0.55, seed}), omission_under_byz));
    run_once(factory, half_inputs(n), byz, opts);

    under_chaos.expect_exact();
    under_both.expect_exact();
    omission_under_byz.expect_exact();
  }
}

}  // namespace
}  // namespace synran
