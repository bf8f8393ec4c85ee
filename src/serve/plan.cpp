#include "serve/plan.hpp"

#include "runner/experiment.hpp"

namespace synran::serve {

namespace {

using obs::JsonValue;

/// Pulls one named counter out of a restored aggregate's registry.
std::int64_t counter(const obs::MetricsRegistry& metrics, const char* name) {
  return static_cast<std::int64_t>(metrics.counter_at(name).value());
}

}  // namespace

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
