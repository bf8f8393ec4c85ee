// Tests for the exact valency engine (§3.2–3.6): the classification table,
// exactness on deterministic protocols, validity-pinned initial states, and
// the executable Lemma 3.5.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "lowerbound/valency.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/synran.hpp"

namespace synran {
namespace {

// ----------------------------------------------------------- classification

TEST(ClassifyTest, TableIsExhaustiveAndExclusive) {
  // Sweep a grid of (min, max) pairs: exactly one class always fires.
  const double n = 16, k = 1;
  for (double mn = 0.0; mn <= 1.0001; mn += 0.05) {
    for (double mx = mn; mx <= 1.0001; mx += 0.05) {
      const Valency v = classify(mn, mx, n, k);
      const auto mask = classify_bounds({mn, mn}, {mx, mx}, n, k);
      EXPECT_TRUE(bounds_decide_unique(mask));
      EXPECT_EQ(mask, 1u << static_cast<int>(v));
    }
  }
}

TEST(ClassifyTest, CornersMatchPaperTable) {
  const double n = 100, k = 1;  // ε = 1/10 − 1/100 = 0.09
  EXPECT_EQ(classify(0.0, 1.0, n, k), Valency::Bivalent);
  EXPECT_EQ(classify(0.0, 0.5, n, k), Valency::ZeroValent);
  EXPECT_EQ(classify(0.5, 1.0, n, k), Valency::OneValent);
  EXPECT_EQ(classify(0.5, 0.5, n, k), Valency::NullValent);
  // Thresholds are strict around ε = 0.09 (values nudged off the exact
  // boundary to stay clear of floating-point representation).
  EXPECT_EQ(classify(0.091, 0.5, n, k), Valency::NullValent);
  EXPECT_EQ(classify(0.089, 0.5, n, k), Valency::ZeroValent);
}

TEST(ClassifyTest, MarginShrinksWithRound) {
  // By round k = n/√n·… the ε margin hits 0 and everything with min<max
  // straddling nothing becomes null/bi by the degenerate margins.
  EXPECT_EQ(classify(0.0, 1.0, 100.0, 50.0), Valency::NullValent)
      << "ε clamps to 0: nothing is classified low/high";
}

TEST(ClassifyBoundsTest, WideBoundsAdmitSeveralClasses) {
  const auto mask = classify_bounds({0.0, 0.5}, {0.5, 1.0}, 100.0, 1.0);
  EXPECT_FALSE(bounds_decide_unique(mask));
  EXPECT_NE(mask & (1u << static_cast<int>(Valency::Bivalent)), 0);
  EXPECT_NE(mask & (1u << static_cast<int>(Valency::NullValent)), 0);
}

TEST(ClassifyBoundsTest, TightBoundsDecide) {
  const auto mask = classify_bounds({0.0, 0.0}, {1.0, 1.0}, 100.0, 1.0);
  EXPECT_TRUE(bounds_decide_unique(mask));
  EXPECT_EQ(mask, 1u << static_cast<int>(Valency::Bivalent));
}

TEST(ClassifyTest, ToStringCoversAllClasses) {
  EXPECT_STREQ(to_string(Valency::Bivalent), "bivalent");
  EXPECT_STREQ(to_string(Valency::ZeroValent), "0-valent");
  EXPECT_STREQ(to_string(Valency::OneValent), "1-valent");
  EXPECT_STREQ(to_string(Valency::NullValent), "null-valent");
}

// ------------------------------------------------- exact engine, FloodMin

TEST(ValencyEngineTest, FloodMinAllOnesIsOneValent) {
  FloodMinFactory factory({1, false});
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 6;
  const auto v = evaluate_initial_state(
      factory, std::vector<Bit>(3, Bit::One), opts);
  // Deterministic protocol, unanimous input: Pr[1] = 1 under every
  // adversary, exactly.
  EXPECT_TRUE(v.min_r.exact());
  EXPECT_TRUE(v.max_r.exact());
  EXPECT_DOUBLE_EQ(v.min_r.lo, 1.0);
  EXPECT_DOUBLE_EQ(v.max_r.lo, 1.0);
  EXPECT_FALSE(v.saw_disagreement);
  EXPECT_EQ(v.classes, 1u << static_cast<int>(Valency::OneValent));
}

TEST(ValencyEngineTest, FloodMinAllZerosIsZeroValent) {
  FloodMinFactory factory({1, false});
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 6;
  const auto v = evaluate_initial_state(
      factory, std::vector<Bit>(3, Bit::Zero), opts);
  EXPECT_DOUBLE_EQ(v.min_r.hi, 0.0);
  EXPECT_DOUBLE_EQ(v.max_r.hi, 0.0);
  EXPECT_EQ(v.classes, 1u << static_cast<int>(Valency::ZeroValent));
}

TEST(ValencyEngineTest, FloodMinMixedInputsSwingWithTheAdversary) {
  // FloodMin with t=1 and inputs {0,1,1}: delivering everything decides 0;
  // crashing the 0-holder before anyone hears it decides 1. So min=0, max=1:
  // bivalent at round 1.
  FloodMinFactory factory({1, false});
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 6;
  const auto v = evaluate_initial_state(
      factory, {Bit::Zero, Bit::One, Bit::One}, opts);
  EXPECT_TRUE(v.min_r.exact());
  EXPECT_TRUE(v.max_r.exact());
  EXPECT_DOUBLE_EQ(v.min_r.lo, 0.0);
  EXPECT_DOUBLE_EQ(v.max_r.lo, 1.0);
  EXPECT_FALSE(v.saw_disagreement);
  EXPECT_EQ(v.classes, 1u << static_cast<int>(Valency::Bivalent));
}

TEST(ValencyEngineTest, NoBudgetPinsDeterministicOutcome) {
  FloodMinFactory factory({1, false});
  ValencyOptions opts;
  opts.t_budget = 0;
  opts.max_depth = 6;
  const auto v = evaluate_initial_state(
      factory, {Bit::Zero, Bit::One, Bit::One}, opts);
  // No crashes possible: the 0 floods and wins, min = max = 0.
  EXPECT_DOUBLE_EQ(v.min_r.hi, 0.0);
  EXPECT_DOUBLE_EQ(v.max_r.hi, 0.0);
}

// --------------------------------------------------- exact engine, SynRan

TEST(ValencyEngineTest, SynRanValidityStatesAreExactlyPinned) {
  SynRanFactory factory;
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 14;
  const auto all1 = evaluate_initial_state(
      factory, std::vector<Bit>(3, Bit::One), opts);
  EXPECT_DOUBLE_EQ(all1.min_r.lo, 1.0) << "validity: all-1 must decide 1";
  EXPECT_TRUE(all1.min_r.exact());
  EXPECT_FALSE(all1.saw_disagreement);

  const auto all0 = evaluate_initial_state(
      factory, std::vector<Bit>(3, Bit::Zero), opts);
  EXPECT_DOUBLE_EQ(all0.max_r.hi, 0.0) << "validity: all-0 must decide 0";
  EXPECT_TRUE(all0.max_r.exact());
}

TEST(ValencyEngineTest, SynRanMixedInputIsAdversarySwingable) {
  SynRanFactory factory;
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 14;
  const auto v = evaluate_initial_state(
      factory, {Bit::Zero, Bit::One, Bit::One}, opts);
  // The adversary can hide the single 0 (forcing Z=0 ⇒ all propose 1) or
  // hide a 1 (12 < 4·3 territory ⇒ decide 0): full swing.
  EXPECT_LE(v.min_r.hi, 0.05);
  EXPECT_GE(v.max_r.lo, 0.95);
  EXPECT_FALSE(v.saw_disagreement);
}

TEST(ValencyEngineTest, DepthZeroReturnsVacuousBounds) {
  SynRanFactory factory;
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 0;
  const auto v = evaluate_initial_state(
      factory, {Bit::Zero, Bit::One}, opts);
  EXPECT_DOUBLE_EQ(v.min_r.lo, 0.0);
  EXPECT_DOUBLE_EQ(v.min_r.hi, 1.0);
}

TEST(ValencyEngineTest, GuardsItsDomain) {
  SynRanFactory factory;
  ValencyOptions opts;
  opts.t_budget = 3;
  EXPECT_THROW(
      evaluate_initial_state(factory, std::vector<Bit>(3, Bit::One), opts),
      ArgumentError);  // t must be < n
  opts.t_budget = 1;
  EXPECT_THROW(
      evaluate_initial_state(factory, std::vector<Bit>(8, Bit::One), opts),
      ArgumentError);  // n too large for exhaustion
  opts.per_round_cap = 2;
  EXPECT_THROW(
      evaluate_initial_state(factory, std::vector<Bit>(3, Bit::One), opts),
      ArgumentError);  // cap > 1 unsupported
}

// ------------------------------------------------------------- Lemma 3.5

TEST(Lemma35Test, FloodMinChainContainsBivalentState) {
  FloodMinFactory factory({1, false});
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 6;
  const auto f = find_bivalent_or_null_initial_state(factory, 3, opts);
  ASSERT_TRUE(f.found);
  EXPECT_FALSE(f.verdict.saw_disagreement);
  // The witness cannot be a unanimous input (validity pins those).
  bool all_same = true;
  for (auto b : f.inputs)
    if (b != f.inputs[0]) all_same = false;
  EXPECT_FALSE(all_same);
}

TEST(Lemma35Test, SynRanChainContainsBivalentOrNullState) {
  SynRanFactory factory;
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 14;
  const auto f = find_bivalent_or_null_initial_state(factory, 3, opts);
  EXPECT_TRUE(f.found);
  EXPECT_FALSE(f.verdict.saw_disagreement);
}

// ------------------------------------------------------------------ golden

TEST(ValencyEngineGolden, E9InitialStatesArePinned) {
  // Every row of bench_e9_valency_exact's E9a/E9b tables: the min/max r
  // bounds, the consistent classes and the number of states the game-tree
  // walk visits. `states` pins the shape of the search itself, so a change
  // to the round step or the memo key shows here even when the bounds hold.
  struct Row {
    bool synran;
    std::uint32_t inputs;  ///< bit i = x_i
    double min_lo, min_hi, max_lo, max_hi;
    std::uint8_t classes;
    std::uint64_t states;
  };
  const Row rows[] = {
      {false, 0, 0, 0, 0, 0, 2, 39},    {false, 1, 0, 0, 0, 0, 2, 39},
      {false, 2, 0, 0, 0, 0, 2, 39},    {false, 3, 0, 0, 1, 1, 1, 39},
      {false, 4, 0, 0, 0, 0, 2, 39},    {false, 5, 0, 0, 1, 1, 1, 39},
      {false, 6, 0, 0, 1, 1, 1, 39},    {false, 7, 1, 1, 1, 1, 4, 39},
      {true, 0, 0, 0, 0, 0, 2, 138},    {true, 1, 0, 0, 0, 0, 2, 138},
      {true, 2, 0, 0, 0, 0, 2, 138},    {true, 3, 0, 0, 1, 1, 1, 477},
      {true, 4, 0, 0, 0, 0, 2, 138},    {true, 5, 0, 0, 1, 1, 1, 477},
      {true, 6, 0, 0, 1, 1, 1, 477},    {true, 7, 1, 1, 1, 1, 4, 138},
  };
  FloodMinFactory flood({1, false});
  SynRanFactory synran;
  ValencyOptions flood_opts;
  flood_opts.t_budget = 1;
  flood_opts.max_depth = 6;
  ValencyOptions synran_opts;
  synran_opts.t_budget = 1;
  synran_opts.max_depth = 14;
  for (const Row& row : rows) {
    std::vector<Bit> inputs;
    for (std::uint32_t i = 0; i < 3; ++i)
      inputs.push_back(bit_of((row.inputs >> i) & 1));
    const auto v =
        row.synran ? evaluate_initial_state(synran, inputs, synran_opts)
                   : evaluate_initial_state(flood, inputs, flood_opts);
    const std::string at = std::string(row.synran ? "synran" : "floodmin") +
                           " inputs " + std::to_string(row.inputs);
    EXPECT_DOUBLE_EQ(v.min_r.lo, row.min_lo) << at;
    EXPECT_DOUBLE_EQ(v.min_r.hi, row.min_hi) << at;
    EXPECT_DOUBLE_EQ(v.max_r.lo, row.max_lo) << at;
    EXPECT_DOUBLE_EQ(v.max_r.hi, row.max_hi) << at;
    EXPECT_EQ(v.classes, row.classes) << at;
    EXPECT_EQ(v.states_visited, row.states) << at;
    EXPECT_FALSE(v.saw_disagreement) << at;
  }
}

}  // namespace
}  // namespace synran
