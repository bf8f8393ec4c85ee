// Tests for the execution narrator.
#include <gtest/gtest.h>

#include <sstream>

#include "adversary/basic.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "runner/narrate.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

RoundLog logged_run(Adversary& adversary, std::uint32_t n, std::uint32_t t,
                    std::uint64_t seed) {
  RoundLog log;
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = t;
  opts.seed = seed;
  opts.observer = &log;
  Xoshiro256 rng(seed);
  const auto inputs = make_inputs(n, InputPattern::Half, rng);
  (void)run_once(factory, inputs, adversary, opts);
  return log;
}

/// A log of hand-made rounds for a system of `n` processes.
RoundLog synthetic_log(std::uint32_t n,
                       const std::vector<obs::RoundObservation>& rounds) {
  RoundLog log;
  obs::RunInfo info;
  info.n = n;
  log.on_run_begin(info);
  for (const auto& r : rounds) log.on_round_end(r);
  return log;
}

TEST(NarrateTest, EmitsHeaderAndOneLinePerRound) {
  NoAdversary none;
  const RoundLog log = logged_run(none, 16, 0, 1);
  std::ostringstream os;
  NarrateOptions opts;
  opts.collapse_repeats = false;
  narrate(log, os, opts);
  const std::string out = os.str();
  EXPECT_NE(out.find("n = 16"), std::string::npos);
  EXPECT_NE(out.find("r1"), std::string::npos);
  // One line per round plus the header.
  std::size_t lines = 0;
  for (char c : out)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, log.rounds().size() + 1);
}

TEST(NarrateTest, CollapsesIdenticalRounds) {
  // A deterministic all-ones run repeats its shape; collapsed output must
  // be shorter than the uncollapsed one when repeats exist.
  NoAdversary none;
  RoundLog log;
  SynRanFactory factory;
  EngineOptions opts;
  opts.observer = &log;
  (void)run_once(factory, std::vector<Bit>(8, Bit::One), none, opts);

  std::ostringstream collapsed, full;
  narrate(log, collapsed, {true, 10});
  narrate(log, full, {false, 10});
  EXPECT_LE(collapsed.str().size(), full.str().size());
}

TEST(NarrateTest, MarksCrashes) {
  StaticCrashAdversary adv({{1, 0, {}}});
  const RoundLog log = logged_run(adv, 12, 1, 3);
  std::ostringstream os;
  narrate(log, os);
  EXPECT_NE(os.str().find("CRASH x1"), std::string::npos);
}

TEST(NarrateTest, BarReflectsComposition) {
  obs::RoundObservation all_ones;
  all_ones.round = 1;
  all_ones.alive = all_ones.senders = all_ones.ones = 4;
  std::ostringstream os;
  narrate(synthetic_log(4, {all_ones}), os, {false, 8});
  EXPECT_NE(os.str().find("[11111111]"), std::string::npos);
}

TEST(NarrateTest, DetStageCountSplitsCollapsedRuns) {
  // Rounds that differ only in how many senders are in the deterministic
  // stage are different rounds of the story: the det-stage count must not
  // vanish into the first round's "(x k rounds)" line.
  obs::RoundObservation probabilistic;
  probabilistic.alive = 16;
  probabilistic.halted = 14;
  probabilistic.senders = probabilistic.zeros = 2;
  probabilistic.decided = 16;
  std::vector<obs::RoundObservation> rounds;
  for (Round r = 15; r <= 22; ++r) {
    obs::RoundObservation ro = probabilistic;
    ro.round = r;
    ro.deterministic = r == 15 ? 0 : 2;
    rounds.push_back(ro);
  }
  std::ostringstream os;
  narrate(synthetic_log(32, rounds), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("r15 "), std::string::npos) << out;
  EXPECT_NE(out.find("r16 "), std::string::npos) << out;
  EXPECT_NE(out.find("det-stage 2   (x7 rounds)"), std::string::npos) << out;
}

}  // namespace
}  // namespace synran
