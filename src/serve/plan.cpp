#include "serve/plan.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "adversary/basic.hpp"
#include "adversary/byzantine.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/nonadaptive.hpp"
#include "adversary/omission.hpp"
#include "common/rng.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/leadercoin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "serve/request.hpp"

namespace synran::serve {

namespace {

using obs::JsonValue;

// The config reaching this file is canonical (parse_request validated it
// and filled every default), so a missing or ill-typed field here is a
// programming error, not client input. PlanError makes that loud.
[[noreturn]] void plan_bug(const std::string& what) {
  throw std::logic_error("plan: canonical config violated its contract: " +
                         what);
}

const std::string& str_at(const JsonValue& config, const char* key) {
  const JsonValue* v = config.find(key);
  if (v == nullptr || !v->is_string()) plan_bug(key);
  return v->as_string();
}

std::uint64_t u64_at(const JsonValue& config, const char* key) {
  const JsonValue* v = config.find(key);
  if (v == nullptr || !v->is_int() || v->as_int() < 0) plan_bug(key);
  return static_cast<std::uint64_t>(v->as_int());
}

std::uint32_t u32_at(const JsonValue& config, const char* key) {
  return static_cast<std::uint32_t>(u64_at(config, key));
}

std::unique_ptr<ProcessFactory> make_protocol(const std::string& name,
                                              std::uint32_t t) {
  if (name == "synran") return std::make_unique<SynRanFactory>();
  if (name == "benor-sym") {
    SynRanOptions o;
    o.coin_rule = CoinRule::Symmetric;
    return std::make_unique<SynRanFactory>(o);
  }
  if (name == "synran-nodet") {
    SynRanOptions o;
    o.det_handoff = false;
    return std::make_unique<SynRanFactory>(o);
  }
  if (name == "floodmin")
    return std::make_unique<FloodMinFactory>(FloodMinOptions{t, false});
  if (name == "floodmin-early")
    return std::make_unique<FloodMinFactory>(FloodMinOptions{t, true});
  if (name == "leadercoin") return std::make_unique<LeaderCoinFactory>();
  plan_bug("protocol '" + name + "'");
}

AdversaryFactory make_adversary(const std::string& name) {
  if (name == "none") return no_adversary_factory();
  if (name == "random")
    return [](std::uint64_t s) {
      return std::make_unique<RandomCrashAdversary>(
          RandomCrashAdversary::Options{2, 0.6, s});
    };
  if (name == "chain")
    return [](std::uint64_t) {
      return std::make_unique<ChainHidingAdversary>();
    };
  if (name == "coinbias")
    return [](std::uint64_t s) {
      return std::make_unique<CoinBiasAdversary>(
          CoinBiasOptions{0.55, true, s});
    };
  if (name == "oblivious")
    return [](std::uint64_t s) {
      return std::make_unique<ObliviousAdversary>(ObliviousOptions{64, s});
    };
  if (name == "leader-killer")
    return [](std::uint64_t) {
      return std::make_unique<LeaderKillerAdversary>();
    };
  plan_bug("adversary '" + name + "'");
}

InputPattern pattern_at(const JsonValue& config) {
  const std::string& name = str_at(config, "pattern");
  if (name == "all-0") return InputPattern::AllZero;
  if (name == "all-1") return InputPattern::AllOne;
  if (name == "half") return InputPattern::Half;
  if (name == "single-0") return InputPattern::SingleZero;
  if (name == "random") return InputPattern::Random;
  plan_bug("pattern '" + name + "'");
}

/// Canonical faults spec → (byzantine?, rate, budget). The text was
/// validated by parse_request; this just re-reads it.
struct FaultSpec {
  bool enabled = false;
  bool byzantine = false;
  double rate = 0.0;
  std::uint32_t budget = std::numeric_limits<std::uint32_t>::max();
};

FaultSpec faults_at(const JsonValue& config) {
  FaultSpec f;
  const std::string& text = str_at(config, "faults");
  if (text.empty()) return f;
  std::string rest;
  if (text.rfind("omit:", 0) == 0) {
    rest = text.substr(5);
  } else if (text.rfind("byz:", 0) == 0) {
    f.byzantine = true;
    rest = text.substr(4);
  } else {
    plan_bug("faults '" + text + "'");
  }
  if (const auto comma = rest.find(','); comma != std::string::npos) {
    f.budget = static_cast<std::uint32_t>(
        std::stoull(rest.substr(comma + 1)));
    rest = rest.substr(0, comma);
  }
  f.rate = std::stod(rest);
  f.enabled = true;
  return f;
}

AsyncSchedulerFactory scheduler_at(const JsonValue& config) {
  const std::string& name = str_at(config, "scheduler");
  if (name == "fifo") return fifo_scheduler_factory();
  if (name == "random") return random_scheduler_factory();
  if (name == "laggard") return laggard_scheduler_factory();
  if (name == "stall") return stall_scheduler_factory();
  plan_bug("scheduler '" + name + "'");
}

AsyncDelayFactory delay_at(const JsonValue& config) {
  const std::string& text = str_at(config, "delay");
  const std::uint64_t gst = u64_at(config, "gst");
  const std::uint64_t delta = u64_at(config, "delta");
  if (gst != 0 || delta != 0) return gst_delay_factory(gst, delta);
  if (text == "held") return held_delay_factory();
  if (text.rfind("fixed:", 0) == 0) {
    return fixed_delay_factory(std::stoull(text.substr(6)));
  }
  if (text.rfind("uniform:", 0) == 0) {
    const std::string rest = text.substr(8);
    const auto comma = rest.find(',');
    if (comma == std::string::npos) plan_bug("delay '" + text + "'");
    return uniform_delay_factory(std::stoull(rest.substr(0, comma)),
                                 std::stoull(rest.substr(comma + 1)));
  }
  plan_bug("delay '" + text + "'");
}

RunPlan build_sync_plan(const JsonValue& config, unsigned threads) {
  RunPlan plan;
  plan.is_async = false;
  const std::uint32_t t = u32_at(config, "t");
  plan.factory = make_protocol(str_at(config, "protocol"), t);
  plan.adversaries = make_adversary(str_at(config, "adversary"));

  const FaultSpec faults = faults_at(config);
  if (faults.enabled) {
    // Same layering as `synran run --faults=...`: the fault coins use
    // their own derived stream (1 = omission chaos, 2 = corruption) so
    // they never perturb the inner adversary's randomness.
    if (faults.byzantine) {
      plan.adversaries = [inner = std::move(plan.adversaries),
                          faults](std::uint64_t s)
          -> std::unique_ptr<Adversary> {
        ByzantineOptions byz;
        byz.corrupt_rate = faults.rate;
        byz.seed = SeedSequence(s).stream(2);
        return std::make_unique<ByzantineAdversary>(byz, inner(s));
      };
    } else {
      plan.adversaries = [inner = std::move(plan.adversaries),
                          faults](std::uint64_t s)
          -> std::unique_ptr<Adversary> {
        ChaosOptions chaos;
        chaos.drop_rate = faults.rate;
        chaos.seed = SeedSequence(s).stream(1);
        return std::make_unique<ChaosAdversary>(chaos, inner(s));
      };
    }
  }

  plan.spec.n = u32_at(config, "n");
  plan.spec.pattern = pattern_at(config);
  plan.spec.reps = u64_at(config, "reps");
  plan.spec.seed = u64_at(config, "seed");
  plan.spec.threads = threads;
  plan.spec.engine.t_budget = t;
  plan.spec.engine.max_rounds = u32_at(config, "max_rounds");
  plan.spec.max_rep_retries = u32_at(config, "retries");
  plan.spec.policy = str_at(config, "fail_policy") == "quarantine"
                         ? FailurePolicy::Quarantine
                         : FailurePolicy::FailFast;
  if (faults.enabled) {
    if (faults.byzantine)
      plan.spec.engine.byzantine_budget = faults.budget;
    else
      plan.spec.engine.omission_budget = faults.budget;
  }
  return plan;
}

RunPlan build_async_plan(const JsonValue& config, unsigned threads) {
  RunPlan plan;
  plan.is_async = true;
  plan.schedulers = scheduler_at(config);
  plan.delays = delay_at(config);
  plan.benor.retransmit_every = u64_at(config, "retransmit");

  plan.aspec.n = u32_at(config, "n");
  plan.aspec.pattern = pattern_at(config);
  plan.aspec.reps = u64_at(config, "reps");
  plan.aspec.seed = u64_at(config, "seed");
  plan.aspec.threads = threads;
  plan.aspec.engine.t_budget = u32_at(config, "t");
  plan.aspec.engine.max_steps = u64_at(config, "max_steps");
  if (const std::uint64_t max_time = u64_at(config, "max_time");
      max_time != 0) {
    plan.aspec.engine.max_time = max_time;
  }
  return plan;
}

/// Pulls one named counter out of a restored aggregate's registry.
std::int64_t counter(const obs::MetricsRegistry& metrics, const char* name) {
  return static_cast<std::int64_t>(metrics.counter_at(name).value());
}

}  // namespace

RunPlan build_plan(const JsonValue& canonical_config, unsigned threads) {
  if (str_at(canonical_config, "model") == "async") {
    return build_async_plan(canonical_config, threads);
  }
  return build_sync_plan(canonical_config, threads);
}

JsonValue execute_plan(const RunPlan& plan) {
  if (plan.is_async) {
    const BenOrAsyncFactory factory(plan.benor);
    const AsyncRunStats stats =
        run_repeated_async(factory, plan.schedulers, plan.delays, plan.aspec);
    return stats.checkpoint_json();
  }
  const RepeatedRunStats stats =
      run_repeated(*plan.factory, plan.adversaries, plan.spec);
  return stats.checkpoint_json();
}

JsonValue result_from_payload(bool is_async, const JsonValue& payload) {
  JsonValue result = JsonValue::object();
  if (is_async) {
    const AsyncRunStats stats = AsyncRunStats::from_checkpoint(payload);
    result.set("model", "async");
    result.set("reps", JsonValue(static_cast<std::int64_t>(stats.reps())));
    result.set("all_safe", JsonValue(stats.all_safe()));
    result.set("decided_one", counter(stats.metrics(), "decided_one"));
    result.set("agreement_failures",
               counter(stats.metrics(), "agreement_failures"));
    result.set("validity_failures",
               counter(stats.metrics(), "validity_failures"));
    result.set("non_terminated", counter(stats.metrics(), "non_terminated"));
    result.set("reps_quarantined",
               counter(stats.metrics(), "reps_quarantined"));
    result.set("rounds_to_decision_mean",
               JsonValue(stats.rounds_to_decision().mean()));
    result.set("ticks_to_decision_mean",
               JsonValue(stats.ticks_to_decision().mean()));
    result.set("messages_delivered_mean",
               JsonValue(stats.messages_delivered().mean()));
  } else {
    const RepeatedRunStats stats = RepeatedRunStats::from_checkpoint(payload);
    result.set("model", "sync");
    result.set("reps", JsonValue(static_cast<std::int64_t>(stats.reps())));
    result.set("all_safe",
               JsonValue(stats.all_safe() && stats.reps_quarantined() == 0));
    result.set("decided_one", counter(stats.metrics(), "decided_one"));
    result.set("agreement_failures",
               counter(stats.metrics(), "agreement_failures"));
    result.set("validity_failures",
               counter(stats.metrics(), "validity_failures"));
    result.set("non_terminated", counter(stats.metrics(), "non_terminated"));
    result.set("reps_quarantined",
               counter(stats.metrics(), "reps_quarantined"));
    result.set("rounds_to_decision_mean",
               JsonValue(stats.rounds_to_decision().mean()));
    result.set("rounds_to_halt_mean",
               JsonValue(stats.rounds_to_halt().mean()));
    result.set("messages_delivered_mean",
               JsonValue(stats.messages_delivered().mean()));
  }
  result.set("checkpoint", payload);
  return result;
}

}  // namespace synran::serve
