#include "runner/run_spec.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <vector>

#include "adversary/basic.hpp"
#include "adversary/byzantine.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/nonadaptive.hpp"
#include "adversary/omission.hpp"
#include "common/rng.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/leadercoin.hpp"
#include "protocols/synran.hpp"

namespace synran {

namespace {

using obs::JsonValue;

// ------------------------------------------------------------ name tables

template <class T>
struct Named {
  const char* name;
  T value;
};

/// The entry whose name is `value`; otherwise a SpecError listing the
/// table's names, optionally prefixed with `prefix`.
template <class T, std::size_t N>
const Named<T>& lookup(const Named<T> (&table)[N], const std::string& key,
                       const std::string& value,
                       const std::string& prefix = "") {
  std::string expected;
  for (std::size_t i = 0; i < N; ++i) {
    if (value == table[i].name) return table[i];
    expected += i == 0 ? "" : i + 1 < N ? ", " : N == 2 ? " or " : ", or ";
    expected += table[i].name;
  }
  throw SpecError(prefix + "invalid " + key + " '" + value + "' (expected " +
                  expected + ")");
}

const char* const kUnknownName = "unknown protocol or adversary: ";

using ProtocolMaker = std::unique_ptr<ProcessFactory> (*)(std::uint32_t t);
const Named<ProtocolMaker> kProtocols[] = {
    {"synran",
     [](std::uint32_t) -> std::unique_ptr<ProcessFactory> {
       return std::make_unique<SynRanFactory>();
     }},
    {"benor-sym",
     [](std::uint32_t) -> std::unique_ptr<ProcessFactory> {
       SynRanOptions o;
       o.coin_rule = CoinRule::Symmetric;
       return std::make_unique<SynRanFactory>(o);
     }},
    {"synran-nodet",
     [](std::uint32_t) -> std::unique_ptr<ProcessFactory> {
       SynRanOptions o;
       o.det_handoff = false;
       return std::make_unique<SynRanFactory>(o);
     }},
    {"floodmin",
     [](std::uint32_t t) -> std::unique_ptr<ProcessFactory> {
       return std::make_unique<FloodMinFactory>(FloodMinOptions{t, false});
     }},
    {"floodmin-early",
     [](std::uint32_t t) -> std::unique_ptr<ProcessFactory> {
       return std::make_unique<FloodMinFactory>(FloodMinOptions{t, true});
     }},
    {"leadercoin",
     [](std::uint32_t) -> std::unique_ptr<ProcessFactory> {
       return std::make_unique<LeaderCoinFactory>();
     }},
};

/// The async model runs Ben-Or only; the name selects its base options.
const Named<BenOrOptions> kAsyncProtocols[] = {{"benor", BenOrOptions{}}};

using AdversaryMaker = std::unique_ptr<Adversary> (*)(std::uint64_t seed);
const Named<AdversaryMaker> kAdversaries[] = {
    {"none",
     [](std::uint64_t) -> std::unique_ptr<Adversary> {
       return std::make_unique<NoAdversary>();
     }},
    {"random",
     [](std::uint64_t s) -> std::unique_ptr<Adversary> {
       return std::make_unique<RandomCrashAdversary>(
           RandomCrashAdversary::Options{2, 0.6, s});
     }},
    {"chain",
     [](std::uint64_t) -> std::unique_ptr<Adversary> {
       return std::make_unique<ChainHidingAdversary>();
     }},
    {"coinbias",
     [](std::uint64_t s) -> std::unique_ptr<Adversary> {
       return std::make_unique<CoinBiasAdversary>(
           CoinBiasOptions{0.55, true, s});
     }},
    {"oblivious",
     [](std::uint64_t s) -> std::unique_ptr<Adversary> {
       return std::make_unique<ObliviousAdversary>(ObliviousOptions{64, s});
     }},
    {"leader-killer",
     [](std::uint64_t) -> std::unique_ptr<Adversary> {
       return std::make_unique<LeaderKillerAdversary>();
     }},
};

const Named<AsyncSchedulerFactory (*)()> kSchedulers[] = {
    {"fifo", fifo_scheduler_factory},
    {"random", random_scheduler_factory},
    {"laggard", laggard_scheduler_factory},
    {"stall", stall_scheduler_factory},
};

/// A delay model spelled NAME[:ARG,...] with exactly `arity` arguments.
struct DelayShape {
  const char* usage;
  std::size_t arity;
  AsyncDelayFactory (*make)(const std::vector<std::uint64_t>& args);
};
const Named<DelayShape> kDelays[] = {
    {"held", {"held", 0, [](const std::vector<std::uint64_t>&) {
                return held_delay_factory();
              }}},
    {"fixed", {"fixed:D", 1, [](const std::vector<std::uint64_t>& a) {
                 return fixed_delay_factory(a[0]);
               }}},
    {"uniform", {"uniform:LO,HI", 2, [](const std::vector<std::uint64_t>& a) {
                   return uniform_delay_factory(a[0], a[1]);
                 }}},
};

const Named<InputPattern> kPatterns[] = {
    {to_string(InputPattern::AllZero), InputPattern::AllZero},
    {to_string(InputPattern::AllOne), InputPattern::AllOne},
    {to_string(InputPattern::Half), InputPattern::Half},
    {to_string(InputPattern::SingleZero), InputPattern::SingleZero},
    {to_string(InputPattern::Random), InputPattern::Random},
};

const Named<FailurePolicy> kPolicies[] = {
    {to_string(FailurePolicy::FailFast), FailurePolicy::FailFast},
    {to_string(FailurePolicy::Quarantine), FailurePolicy::Quarantine},
};

/// Model name → is_async.
const Named<bool> kModels[] = {{"sync", false}, {"async", true}};

/// Keys only the sync model takes; an async config naming one is told so
/// instead of getting a bare "unknown key".
const char* const kSyncOnlyKeys[] = {"adversary", "faults", "max_rounds",
                                     "fail_policy", "retries"};

// ---------------------------------------------------------- value parsers

std::uint32_t narrow_u32(const std::string& key, std::uint64_t v) {
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw SpecError("value for " + key + " is out of range: '" +
                    std::to_string(v) + "'");
  }
  return static_cast<std::uint32_t>(v);
}

double parse_f64(const std::string& key, const std::string& text) {
  double v = 0.0;
  const char* b = text.data();
  const char* e = b + text.size();
  const auto [p, ec] = std::from_chars(b, e, v);
  if (text.empty() || ec != std::errc() || p != e) {
    throw SpecError("invalid value for " + key + ": '" + text +
                    "' (expected a number)");
  }
  return v;
}

/// A parsed "faults" value: "" (off), omit:RATE[,BUDGET] (seeded i.i.d.
/// link drops) or byz:RATE[,BUDGET] (seeded equivocating corruption).
struct FaultSpec {
  FaultRegime regime = FaultRegime::None;
  double rate = 0.0;
  /// Directive budget; "effectively unlimited" unless BUDGET is given, so
  /// a bare omit:p / byz:p studies the pure rate regime.
  std::uint32_t budget = std::numeric_limits<std::uint32_t>::max();
};

FaultSpec parse_faults(const std::string& key, const std::string& text) {
  FaultSpec f;
  if (text.empty()) return f;
  std::string rest;
  if (text.rfind("omit:", 0) == 0) {
    f.regime = FaultRegime::Omission;
    rest = text.substr(5);
  } else if (text.rfind("byz:", 0) == 0) {
    f.regime = FaultRegime::Byzantine;
    rest = text.substr(4);
  } else {
    throw SpecError("invalid " + key + " '" + text +
                    "': expected omit:RATE[,BUDGET] or byz:RATE[,BUDGET]");
  }
  if (const auto comma = rest.find(','); comma != std::string::npos) {
    f.budget = parse_u32(key, rest.substr(comma + 1));
    rest = rest.substr(0, comma);
  }
  f.rate = parse_f64(key, rest);
  if (!(f.rate >= 0.0 && f.rate <= 1.0)) {
    throw SpecError("invalid " + key + " rate '" + rest +
                    "': must lie in [0, 1]");
  }
  return f;
}

AsyncDelayFactory parse_delay(const std::string& key,
                              const std::string& text) {
  const std::size_t colon = text.find(':');
  const DelayShape& shape =
      lookup(kDelays, key, text.substr(0, colon)).value;
  std::vector<std::uint64_t> args;
  for (std::size_t at = colon; at != std::string::npos;) {
    const std::size_t next = text.find(',', at + 1);
    args.push_back(parse_u64(key, text.substr(at + 1, next - at - 1)));
    at = next;
  }
  if (args.size() != shape.arity) {
    throw SpecError("invalid " + key + " '" + text + "': expected " +
                    shape.usage);
  }
  if (args.size() == 2 && args[0] > args[1]) {
    throw SpecError("invalid " + key + " '" + text + "': LO must be <= HI");
  }
  return shape.make(args);
}

/// Layers the configured link faults over the crash adversary. The fault
/// coins use their own derived stream (1 = omission chaos, 2 = corruption)
/// so they never perturb the inner adversary's randomness.
AdversaryFactory with_faults(AdversaryMaker inner, const FaultSpec& f) {
  switch (f.regime) {
    case FaultRegime::Omission:
      return [inner, rate = f.rate](std::uint64_t s)
                 -> std::unique_ptr<Adversary> {
        ChaosOptions chaos;
        chaos.drop_rate = rate;
        chaos.seed = SeedSequence(s).stream(1);
        return std::make_unique<ChaosAdversary>(chaos, inner(s));
      };
    case FaultRegime::Byzantine:
      return [inner, rate = f.rate](std::uint64_t s)
                 -> std::unique_ptr<Adversary> {
        ByzantineOptions byz;
        byz.corrupt_rate = rate;
        byz.seed = SeedSequence(s).stream(2);
        return std::make_unique<ByzantineAdversary>(byz, inner(s));
      };
    case FaultRegime::None:
      break;
  }
  return inner;
}

// ------------------------------------------------------------- the reader

/// One config object in either spelling. Flag-form values are all strings
/// (numbers are parsed here, strictly); config-form values are typed JSON.
class Reader {
 public:
  Reader(const JsonValue& config, bool flags)
      : config_(config), flags_(flags) {}

  /// `name` as the caller spelled it: "--max-rounds" or "config.max_rounds".
  std::string key(std::string name) const {
    if (!flags_) return "config." + name;
    std::replace(name.begin(), name.end(), '_', '-');
    return "--" + name;
  }

  const JsonValue::Object& entries() const { return config_.as_object(); }

  std::string unknown(const std::string& name) const {
    return flags_ ? "unknown flag " + key(name)
                  : "unknown config key '" + name + "'";
  }

  std::string str(const char* name, const std::string& dflt) const {
    const JsonValue* v = config_.find(name);
    if (v == nullptr) return dflt;
    if (!v->is_string()) {
      throw SpecError("invalid value for " + key(name) +
                      " (expected a string)");
    }
    return v->as_string();
  }

  std::uint64_t u64(const char* name, std::uint64_t dflt) const {
    const JsonValue* v = config_.find(name);
    if (v == nullptr) return dflt;
    if (flags_) {
      // The canonical form stores JSON integers (int64).
      const std::uint64_t parsed = parse_u64(key(name), v->as_string());
      if (parsed > static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max())) {
        throw SpecError("value for " + key(name) + " is out of range: '" +
                        v->as_string() + "'");
      }
      return parsed;
    }
    if (!v->is_int() || v->as_int() < 0) {
      throw SpecError("invalid value for " + key(name) + ": '" + v->dump() +
                      "' (expected a non-negative integer)");
    }
    return static_cast<std::uint64_t>(v->as_int());
  }

  std::uint32_t u32(const char* name, std::uint32_t dflt) const {
    return narrow_u32(key(name), u64(name, dflt));
  }

  template <class T, std::size_t N>
  const Named<T>& pick(const char* name, const Named<T> (&table)[N],
                       const std::string& dflt,
                       const std::string& prefix = "") const {
    return lookup(table, key(name), str(name, dflt), prefix);
  }

 private:
  const JsonValue& config_;
  bool flags_;
};

void check_population(const Reader& in, std::uint32_t n, std::uint32_t t,
                      bool async) {
  if (n == 0) throw SpecError(in.key("n") + " must be >= 1");
  // The engine needs t <= n; the async core also needs a live process.
  if (async ? t >= n : t > n) {
    throw SpecError(in.key("t") + " must be " + (async ? "< " : "<= ") +
                    in.key("n") + " (got " + std::to_string(t) +
                    (async ? " >= " : " > ") + std::to_string(n) + ")");
  }
}

/// Validates a sync config into canonical form; also fills `plan` when
/// one is given.
JsonValue read_sync(const Reader& in, RunPlan* plan) {
  const auto& protocol = in.pick("protocol", kProtocols, "synran", kUnknownName);
  const auto& adversary =
      in.pick("adversary", kAdversaries, "coinbias", kUnknownName);
  const std::string faults = in.str("faults", "");
  const FaultSpec fault_spec = parse_faults(in.key("faults"), faults);
  const std::uint32_t n = in.u32("n", 128);
  const std::uint32_t t = in.u32("t", n / 2);
  check_population(in, n, t, false);
  const auto& pattern = in.pick("pattern", kPatterns, "random");
  const std::uint64_t reps = in.u64("reps", 50);
  if (reps == 0) throw SpecError(in.key("reps") + " must be >= 1");
  const std::uint64_t seed = in.u64("seed", 1);
  const std::uint32_t max_rounds = in.u32("max_rounds", 100000);
  const auto& policy = in.pick("fail_policy", kPolicies, "fail_fast");
  const std::uint32_t retries = in.u32("retries", 0);

  if (plan != nullptr) {
    plan->factory = protocol.value(t);
    plan->adversaries = with_faults(adversary.value, fault_spec);
    plan->faults = fault_spec.regime;
    RepeatSpec& spec = plan->spec;
    spec.n = n;
    spec.pattern = pattern.value;
    spec.reps = reps;
    spec.seed = seed;
    spec.engine.t_budget = t;
    spec.engine.max_rounds = max_rounds;
    spec.max_rep_retries = retries;
    spec.policy = policy.value;
    if (fault_spec.regime == FaultRegime::Omission)
      spec.engine.omission_budget = fault_spec.budget;
    if (fault_spec.regime == FaultRegime::Byzantine)
      spec.engine.byzantine_budget = fault_spec.budget;
  }

  JsonValue canon = JsonValue::object();
  canon.set("model", "sync");
  canon.set("protocol", protocol.name);
  canon.set("adversary", adversary.name);
  canon.set("faults", faults);
  canon.set("n", JsonValue(n));
  canon.set("t", JsonValue(t));
  canon.set("pattern", pattern.name);
  canon.set("reps", JsonValue(reps));
  canon.set("seed", JsonValue(seed));
  canon.set("max_rounds", JsonValue(max_rounds));
  canon.set("fail_policy", policy.name);
  canon.set("retries", JsonValue(retries));
  return canon;
}

/// The async counterpart of read_sync.
JsonValue read_async(const Reader& in, RunPlan* plan) {
  const auto& protocol =
      in.pick("protocol", kAsyncProtocols, "benor", kUnknownName);
  const auto& scheduler = in.pick("scheduler", kSchedulers, "random");
  const std::string delay = in.str("delay", "held");
  AsyncDelayFactory delays = parse_delay(in.key("delay"), delay);
  const std::uint64_t gst = in.u64("gst", 0);
  const std::uint64_t delta = in.u64("delta", 0);
  if (gst != 0 || delta != 0) {
    // Partial synchrony: adversary-held before GST, forced delivery within
    // delta after. Composes with the scheduler, not the timed delays.
    if (delay != "held") {
      throw SpecError(in.key("gst") + "/" + in.key("delta") + " require " +
                      in.key("delay") +
                      " held (they bound the adversary, not a timed link "
                      "model)");
    }
    if (delta == 0) {
      throw SpecError(in.key("gst") + " needs " + in.key("delta") +
                      " >= 1 (the post-GST bound)");
    }
    delays = gst_delay_factory(gst, delta);
  }
  const std::uint64_t retransmit = in.u64("retransmit", 0);
  const std::uint32_t n = in.u32("n", 32);
  const std::uint32_t t = in.u32("t", n >= 2 ? (n - 1) / 2 : 0);
  check_population(in, n, t, true);
  const auto& pattern = in.pick("pattern", kPatterns, "random");
  const std::uint64_t reps = in.u64("reps", 50);
  if (reps == 0) throw SpecError(in.key("reps") + " must be >= 1");
  const std::uint64_t seed = in.u64("seed", 1);
  const std::uint64_t max_steps = in.u64("max_steps", 2000000);
  const std::uint64_t max_time = in.u64("max_time", 0);

  if (plan != nullptr) {
    plan->benor = protocol.value;
    plan->benor.retransmit_every = retransmit;
    plan->schedulers = scheduler.value();
    plan->delays = std::move(delays);
    AsyncRepeatSpec& spec = plan->aspec;
    spec.n = n;
    spec.pattern = pattern.value;
    spec.reps = reps;
    spec.seed = seed;
    spec.engine.t_budget = t;
    spec.engine.max_steps = max_steps;
    if (max_time != 0) spec.engine.max_time = max_time;
  }

  JsonValue canon = JsonValue::object();
  canon.set("model", "async");
  canon.set("protocol", protocol.name);
  canon.set("scheduler", scheduler.name);
  canon.set("delay", delay);
  canon.set("gst", JsonValue(gst));
  canon.set("delta", JsonValue(delta));
  canon.set("retransmit", JsonValue(retransmit));
  canon.set("n", JsonValue(n));
  canon.set("t", JsonValue(t));
  canon.set("pattern", pattern.name);
  canon.set("reps", JsonValue(reps));
  canon.set("seed", JsonValue(seed));
  canon.set("max_steps", JsonValue(max_steps));
  canon.set("max_time", JsonValue(max_time));
  return canon;
}

/// Validates either spelling; every key the canonical form does not carry
/// is rejected, so an unknown key or a misspelled flag never goes quiet.
JsonValue read_config(const Reader& in, RunPlan* plan) {
  const bool async = in.pick("model", kModels, "sync").value;
  if (plan != nullptr) plan->is_async = async;
  JsonValue canon = async ? read_async(in, plan) : read_sync(in, plan);
  for (const auto& [name, value] : in.entries()) {
    if (canon.find(name) != nullptr) continue;
    if (async && std::find(std::begin(kSyncOnlyKeys), std::end(kSyncOnlyKeys),
                           name) != std::end(kSyncOnlyKeys)) {
      throw SpecError(in.key(name) + " does not apply to " + in.key("model") +
                      "=async" +
                      (name == "adversary"
                           ? " (use " + in.key("scheduler") + ")"
                           : ""));
    }
    throw SpecError(in.unknown(name));
  }
  return canon;
}

}  // namespace

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  std::uint64_t v = 0;
  const char* b = text.data();
  const char* e = b + text.size();
  const auto [p, ec] = std::from_chars(b, e, v);
  if (text.empty() || ec != std::errc() || p != e) {
    throw SpecError("invalid value for " + key + ": '" + text +
                    "' (expected a non-negative integer)");
  }
  return v;
}

std::uint32_t parse_u32(const std::string& key, const std::string& text) {
  return narrow_u32(key, parse_u64(key, text));
}

JsonValue canonical_config(const JsonValue& config) {
  if (!config.is_object()) throw SpecError("config must be a JSON object");
  return read_config(Reader(config, false), nullptr);
}

JsonValue canonical_config(const FlagMap& flags) {
  JsonValue config = JsonValue::object();
  for (const auto& [flag, value] : flags) {
    // Flags spell keys with dashes only: --max-rounds, never --max_rounds.
    if (flag.find('_') != std::string::npos) {
      throw SpecError("unknown flag --" + flag);
    }
    std::string name = flag;
    std::replace(name.begin(), name.end(), '-', '_');
    config.set(std::move(name), value);
  }
  return read_config(Reader(config, true), nullptr);
}

RunPlan build_plan(const JsonValue& config, unsigned threads) {
  RunPlan plan;
  read_config(Reader(config, false), &plan);
  plan.spec.threads = threads;
  plan.aspec.threads = threads;
  return plan;
}

}  // namespace synran
