// The run-config grammar shared by `synran run` flags and synran-req/1
// configs: both spellings canonicalize to the same bytes, errors name the
// key the way the caller wrote it, and build_plan wires exactly what the
// canonical config says.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "runner/run_spec.hpp"

namespace synran {
namespace {

using obs::JsonValue;

JsonValue json(const std::string& text) {
  const auto parsed = JsonValue::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.has_value() ? *parsed : JsonValue::object();
}

/// The SpecError message for one config, or "" when it is accepted.
template <class Config>
std::string error_of(const Config& config) {
  try {
    canonical_config(config);
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(RunSpec, FlagAndConfigFormsCanonicalizeToTheSameBytes) {
  const std::vector<std::pair<FlagMap, std::string>> cases = {
      {{}, "{}"},
      {{{"n", "64"}, {"seed", "9"}}, R"({"n":64,"seed":9})"},
      {{{"model", "sync"},
        {"protocol", "floodmin-early"},
        {"adversary", "none"},
        {"faults", "omit:0.2,40"},
        {"n", "32"},
        {"t", "4"},
        {"pattern", "half"},
        {"reps", "7"},
        {"seed", "3"},
        {"max-rounds", "500"},
        {"fail-policy", "quarantine"},
        {"retries", "2"}},
       R"({"model":"sync","protocol":"floodmin-early","adversary":"none",)"
       R"("faults":"omit:0.2,40","n":32,"t":4,"pattern":"half","reps":7,)"
       R"("seed":3,"max_rounds":500,"fail_policy":"quarantine",)"
       R"("retries":2})"},
      {{{"faults", "byz:0.1"}, {"adversary", "leader-killer"}},
       R"({"faults":"byz:0.1","adversary":"leader-killer"})"},
      {{{"model", "async"}}, R"({"model":"async"})"},
      {{{"model", "async"},
        {"scheduler", "fifo"},
        {"delay", "uniform:1,5"},
        {"retransmit", "3"},
        {"n", "16"},
        {"t", "5"},
        {"pattern", "single-0"},
        {"max-steps", "1000"},
        {"max-time", "90"}},
       R"({"model":"async","scheduler":"fifo","delay":"uniform:1,5",)"
       R"("retransmit":3,"n":16,"t":5,"pattern":"single-0",)"
       R"("max_steps":1000,"max_time":90})"},
      {{{"model", "async"}, {"gst", "20"}, {"delta", "4"}},
       R"({"model":"async","gst":20,"delta":4})"},
  };
  for (const auto& [flags, config] : cases) {
    const std::string from_flags = canonical_config(flags).dump();
    EXPECT_EQ(from_flags, canonical_config(json(config)).dump()) << config;
    // The canonical form is a fixed point of the config spelling.
    EXPECT_EQ(from_flags, canonical_config(json(from_flags)).dump());
  }
}

TEST(RunSpec, ErrorsNameTheKeyInTheCallersSpelling) {
  struct Case {
    FlagMap flags;
    std::string config;
    std::string flag_needle;
    std::string config_needle;
  };
  const std::vector<Case> cases = {
      {{{"max-rounds", "x"}}, R"({"max_rounds":"x"})",
       "invalid value for --max-rounds", "invalid value for config.max_rounds"},
      {{{"retries", "4294967296"}}, R"({"retries":4294967296})",
       "value for --retries is out of range",
       "value for config.retries is out of range"},
      {{{"faults", "omit:1.5"}}, R"({"faults":"omit:1.5"})",
       "invalid --faults rate", "invalid config.faults rate"},
      {{{"faults", "omission:0.1"}}, R"({"faults":"omission:0.1"})",
       "invalid --faults 'omission:0.1'", "invalid config.faults"},
      {{{"pattern", "bogus"}}, R"({"pattern":"bogus"})",
       "invalid --pattern 'bogus'", "invalid config.pattern 'bogus'"},
      {{{"adversary", "nope"}}, R"({"adversary":"nope"})",
       "unknown protocol or adversary", "invalid config.adversary 'nope'"},
      {{{"fail-policy", "sometimes"}}, R"({"fail_policy":"sometimes"})",
       "invalid --fail-policy", "invalid config.fail_policy"},
      {{{"bogus", "1"}}, R"({"bogus":1})", "unknown flag --bogus",
       "unknown config key 'bogus'"},
      {{{"n", "8"}, {"t", "9"}}, R"({"n":8,"t":9})", "--t must be <= --n",
       "config.t must be <= config.n"},
      {{{"n", "0"}}, R"({"n":0})", "--n must be >= 1", "config.n must be >= 1"},
      {{{"reps", "0"}}, R"({"reps":0})", "--reps must be >= 1",
       "config.reps must be >= 1"},
      {{{"model", "async"}, {"reps", "0"}}, R"({"model":"async","reps":0})",
       "--reps must be >= 1", "config.reps must be >= 1"},
      {{{"model", "async"}, {"n", "4"}, {"t", "4"}},
       R"({"model":"async","n":4,"t":4})", "--t must be < --n",
       "config.t must be < config.n"},
      {{{"model", "async"}, {"fail-policy", "quarantine"}},
       R"({"model":"async","fail_policy":"quarantine"})",
       "--fail-policy does not apply to --model=async",
       "config.fail_policy does not apply to config.model=async"},
      {{{"model", "async"}, {"adversary", "chain"}},
       R"({"model":"async","adversary":"chain"})", "(use --scheduler)",
       "(use config.scheduler)"},
      {{{"model", "async"}, {"delay", "uniform:5,1"}},
       R"({"model":"async","delay":"uniform:5,1"})",
       "invalid --delay 'uniform:5,1': LO must be <= HI",
       "invalid config.delay 'uniform:5,1': LO must be <= HI"},
      {{{"model", "async"}, {"gst", "5"}}, R"({"model":"async","gst":5})",
       "--gst needs --delta >= 1", "config.gst needs config.delta >= 1"},
      {{{"model", "warp"}}, R"({"model":"warp"})", "invalid --model 'warp'",
       "invalid config.model 'warp'"},
  };
  for (const auto& c : cases) {
    const std::string flag_error = error_of(c.flags);
    const std::string config_error = error_of(json(c.config));
    EXPECT_NE(flag_error.find(c.flag_needle), std::string::npos)
        << c.config << " -> " << flag_error;
    EXPECT_NE(config_error.find(c.config_needle), std::string::npos)
        << c.config << " -> " << config_error;
  }
}

TEST(RunSpec, FlagsAreStrictAboutSpellingAndNumbers) {
  EXPECT_NE(error_of(FlagMap{{"max_rounds", "5"}}).find(
                "unknown flag --max_rounds"),
            std::string::npos);
  for (const char* text : {"-3", "12a", "0x", "", " 7"}) {
    EXPECT_NE(error_of(FlagMap{{"n", text}}).find("invalid value for --n"),
              std::string::npos)
        << "'" << text << "'";
  }
  // The canonical form holds JSON integers, so a seed must fit in int64.
  EXPECT_NE(error_of(FlagMap{{"seed", "18446744073709551615"}})
                .find("out of range"),
            std::string::npos);
  // A typed config rejects numbers spelled as strings.
  EXPECT_NE(error_of(json(R"({"n":"8"})")).find("config.n"),
            std::string::npos);
  EXPECT_EQ(error_of(json("[1]")), "config must be a JSON object");
}

TEST(RunSpec, BuildPlanWiresTheCanonicalConfig) {
  const RunPlan sync = build_plan(
      canonical_config(FlagMap{{"n", "32"},
                               {"t", "4"},
                               {"faults", "omit:0.2,40"},
                               {"adversary", "coinbias"},
                               {"pattern", "half"},
                               {"reps", "7"},
                               {"seed", "3"},
                               {"max-rounds", "500"},
                               {"fail-policy", "quarantine"},
                               {"retries", "2"}}),
      3);
  EXPECT_FALSE(sync.is_async);
  EXPECT_EQ(sync.faults, FaultRegime::Omission);
  EXPECT_EQ(sync.spec.n, 32u);
  EXPECT_EQ(sync.spec.engine.t_budget, 4u);
  EXPECT_EQ(sync.spec.pattern, InputPattern::Half);
  EXPECT_EQ(sync.spec.reps, 7u);
  EXPECT_EQ(sync.spec.seed, 3u);
  EXPECT_EQ(sync.spec.threads, 3u);
  EXPECT_EQ(sync.spec.engine.max_rounds, 500u);
  EXPECT_EQ(sync.spec.engine.omission_budget, 40u);
  EXPECT_EQ(sync.spec.policy, FailurePolicy::Quarantine);
  EXPECT_EQ(sync.spec.max_rep_retries, 2u);
  EXPECT_STREQ(sync.adversaries(1)->name(), "chaos");

  const RunPlan byz =
      build_plan(canonical_config(FlagMap{{"faults", "byz:0.1"}}), 0);
  EXPECT_EQ(byz.faults, FaultRegime::Byzantine);
  EXPECT_EQ(byz.spec.engine.byzantine_budget,
            std::numeric_limits<std::uint32_t>::max());
  EXPECT_STREQ(byz.adversaries(1)->name(), "byzantine");

  const RunPlan async = build_plan(
      canonical_config(json(R"({"model":"async","n":16,"t":5,)"
                            R"("retransmit":3,"max_steps":1000,)"
                            R"("max_time":90,"reps":4,"seed":2})")),
      2);
  EXPECT_TRUE(async.is_async);
  EXPECT_EQ(async.aspec.n, 16u);
  EXPECT_EQ(async.aspec.engine.t_budget, 5u);
  EXPECT_EQ(async.aspec.engine.max_steps, 1000u);
  EXPECT_EQ(async.aspec.engine.max_time, 90u);
  EXPECT_EQ(async.aspec.reps, 4u);
  EXPECT_EQ(async.aspec.seed, 2u);
  EXPECT_EQ(async.aspec.threads, 2u);
  EXPECT_EQ(async.benor.retransmit_every, 3u);
  EXPECT_TRUE(async.schedulers != nullptr);
  EXPECT_TRUE(async.delays != nullptr);
}

TEST(RunSpec, EveryNameBuildsTheComponentOfThatName) {
  for (const char* protocol : {"synran", "benor-sym", "synran-nodet",
                               "floodmin", "floodmin-early", "leadercoin"}) {
    const RunPlan plan = build_plan(
        canonical_config(FlagMap{{"protocol", protocol}}), 0);
    EXPECT_STREQ(plan.factory->name(), protocol);
  }
  for (const char* adversary : {"none", "random", "chain", "coinbias",
                                "oblivious", "leader-killer"}) {
    const RunPlan plan = build_plan(
        canonical_config(FlagMap{{"adversary", adversary}}), 0);
    EXPECT_STREQ(plan.adversaries(1)->name(), adversary);
  }
  for (const char* scheduler : {"fifo", "random", "laggard", "stall"}) {
    EXPECT_EQ(error_of(FlagMap{{"model", "async"}, {"scheduler", scheduler}}),
              "");
  }
  for (const char* delay : {"held", "fixed:3", "uniform:1,5"}) {
    EXPECT_EQ(error_of(FlagMap{{"model", "async"}, {"delay", delay}}), "");
  }
}

}  // namespace
}  // namespace synran
