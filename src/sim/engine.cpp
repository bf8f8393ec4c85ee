#include "sim/engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/observer.hpp"
#include "sim/audit.hpp"

namespace synran {

namespace {

/// Snapshot of the engine state right after phase A, in observer vocabulary.
obs::RoundObservation observe_round(Round round, const ExecutionState& st) {
  obs::RoundObservation ro;
  ro.round = round;
  ro.alive = static_cast<std::uint32_t>(st.alive().count());
  ro.halted = static_cast<std::uint32_t>(st.halted().count());
  ro.budget_left = st.budget_left();
  for (std::uint32_t i = 0; i < st.n(); ++i) {
    if (st.alive().test(i) && st.process(i).decided()) ++ro.decided;
    const auto& p = st.payloads()[i];
    if (!p.has_value()) continue;
    ++ro.senders;
    if (payload::supports(*p, Bit::One)) ++ro.ones;
    if (payload::supports(*p, Bit::Zero)) ++ro.zeros;
    if (*p & payload::kDeterministicFlag) ++ro.deterministic;
  }
  return ro;
}

}  // namespace

RunSummary Engine::run(const ProcessFactory& factory,
                       std::span<const Bit> inputs, Adversary& adversary,
                       const EngineOptions& options) {
  return run_impl(factory, inputs, adversary, options, nullptr);
}

RunSummary Engine::run(const ProcessFactory& factory,
                       std::span<const Bit> inputs, Adversary& adversary,
                       const EngineOptions& options, RunResult& full) {
  return run_impl(factory, inputs, adversary, options, &full);
}

RunSummary Engine::run_impl(const ProcessFactory& factory,
                            std::span<const Bit> inputs, Adversary& adversary,
                            const EngineOptions& options, RunResult* full) {
  SYNRAN_REQUIRE(!inputs.empty(), "need at least one process");
  SYNRAN_REQUIRE(options.t_budget <= inputs.size(),
                 "fault budget exceeds process count");
  const auto n = static_cast<std::uint32_t>(inputs.size());
  SeedSequence seeds(options.seed);

  ExecutionState& st = ws_.state_;
  st.start(factory, inputs, options.t_budget);
  auto& coins = ws_.coins_;
  if (coins.size() != n) coins.assign(n, RandomCoinSource(0));
  for (std::uint32_t i = 0; i < n; ++i) coins[i].reseed(seeds.stream(i));
  ws_.crashes_per_round_.clear();

  adversary.begin(n, options.t_budget);

  obs::EngineObserver* observer = options.observer;
  if (observer != nullptr) {
    observer->on_run_begin(obs::RunInfo{
        n, options.t_budget, options.per_round_cap, options.seed,
        options.omission_budget, options.omission_round_cap,
        options.byzantine_budget, options.byzantine_round_cap});
  }

  // Always-on model audit (§3.1): cheap per-round predicates that validate
  // the adversary's spend and the engine's own delivery accounting.
  RunAuditor auditor;
  auditor.begin(n, options.t_budget, options.per_round_cap,
                options.omission_budget, options.omission_round_cap,
                options.byzantine_budget, options.byzantine_round_cap);
  auditor.set_strict_decisions(options.strict_decision_audit);

  RunSummary sum;
  std::uint32_t omission_budget_left = options.omission_budget;
  std::uint32_t corruption_budget_left = options.byzantine_budget;
  const auto coin_of = [&coins](ProcessId i) -> CoinSource& {
    return coins[i];
  };

  for (Round r = 1; r <= options.max_rounds; ++r) {
    // --- Phase A: local computation, coins, message preparation.
    const bool anyone_sending = st.phase_a(coin_of);

    // Decision bookkeeping. A process decides while digesting the previous
    // round's receipt, so "all decided as of phase A of round r" means the
    // protocol reached decision in round r-1 (paper counting).
    if (sum.rounds_to_decision == 0 && r > 1 && st.all_decided())
      sum.rounds_to_decision = r - 1;

    auditor.on_phase_a(r, st.payloads(), st.halted(), st.processes());

    if (!anyone_sending) {
      // Everyone alive has halted: the last communication round was r-1.
      sum.rounds_to_halt = r - 1;
      sum.terminated = true;
      break;
    }

    obs::RoundObservation round_obs;
    if (observer != nullptr) {
      round_obs = observe_round(r, st);
      observer->on_round_begin(round_obs);
    }

    // --- Adversary intervention.
    const WorldView world(r, n, st.alive(), st.halted(), st.payloads(),
                          st.processes(), st.budget_left(),
                          options.per_round_cap, omission_budget_left,
                          options.omission_round_cap, corruption_budget_left,
                          options.byzantine_round_cap);
    const FaultPlan plan = adversary.plan_round(world);
    auditor.on_plan(r, plan, st.payloads());
    if (observer != nullptr) observer->on_fault_plan(r, plan);

    // --- Phase B: delivery to surviving, non-halted receivers.
    const DeliveryTally tally = st.phase_b(plan);
    sum.messages_delivered += tally.delivered;
    auditor.on_deliveries(r, plan, st.payloads(), st.active(),
                          tally.delivered);
    if (observer != nullptr) observer->on_deliveries(r, tally.delivered);

    // Commit the crashes and the omission/corruption spend.
    st.commit(plan);
    const auto crashes = static_cast<std::uint32_t>(plan.crash_count());
    const auto omissions = static_cast<std::uint32_t>(plan.omission_count());
    const auto corruptions =
        static_cast<std::uint32_t>(plan.corruption_count());
    sum.crashes_total += crashes;
    omission_budget_left -= omissions;
    sum.omissions_total += omissions;
    sum.messages_omitted += tally.omitted;
    corruption_budget_left -= corruptions;
    sum.corruptions_total += corruptions;
    sum.messages_corrupted += tally.corrupted;
    if (full != nullptr) ws_.crashes_per_round_.push_back(crashes);
    if (observer != nullptr) {
      round_obs.crashes = crashes;
      round_obs.delivered = tally.delivered;
      round_obs.omissions = omissions;
      round_obs.omitted = tally.omitted;
      round_obs.corruptions = corruptions;
      round_obs.corrupted = tally.corrupted;
      observer->on_round_end(round_obs);
    }
  }

  // Harvest final status: agreement across surviving deciders, and the
  // validity verdict while the inputs are still in hand.
  const SurvivorVerdict verdict = st.verdict();
  sum.has_decision = verdict.has_decision;
  sum.decision = verdict.decision;
  sum.agreement = verdict.agreement;
  if (!sum.terminated) sum.rounds_to_halt = options.max_rounds;

  if (sum.has_decision) {
    const bool all0 = std::all_of(inputs.begin(), inputs.end(),
                                  [](Bit b) { return b == Bit::Zero; });
    const bool all1 = std::all_of(inputs.begin(), inputs.end(),
                                  [](Bit b) { return b == Bit::One; });
    if (all0 || all1) {
      const Bit required = all0 ? Bit::Zero : Bit::One;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!st.alive().test(i) || !st.process(i).decided()) continue;
        if (st.process(i).decision() != required) {
          sum.validity = false;
          break;
        }
      }
    }
  }

  if (full != nullptr) {
    full->rounds_to_decision = sum.rounds_to_decision;
    full->rounds_to_halt = sum.rounds_to_halt;
    full->terminated = sum.terminated;
    full->agreement = sum.agreement;
    full->has_decision = sum.has_decision;
    full->decision = sum.decision;
    full->crashes_total = sum.crashes_total;
    full->messages_delivered = sum.messages_delivered;
    full->omissions_total = sum.omissions_total;
    full->messages_omitted = sum.messages_omitted;
    full->corruptions_total = sum.corruptions_total;
    full->messages_corrupted = sum.messages_corrupted;
    full->crashes_per_round = ws_.crashes_per_round_;
    full->crashed.assign(n, false);
    full->decided.assign(n, false);
    full->decisions.assign(n, Bit::Zero);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!st.alive().test(i)) {
        full->crashed[i] = true;
        continue;
      }
      full->decided[i] = st.process(i).decided();
      if (full->decided[i]) full->decisions[i] = st.process(i).decision();
    }
  }

  if (observer != nullptr) {
    obs::RunObservation ro;
    ro.terminated = sum.terminated;
    ro.agreement = sum.agreement;
    ro.has_decision = sum.has_decision;
    ro.decision = to_int(sum.decision);
    ro.rounds_to_decision = sum.rounds_to_decision;
    ro.rounds_to_halt = sum.rounds_to_halt;
    ro.crashes_total = sum.crashes_total;
    ro.messages_delivered = sum.messages_delivered;
    ro.omissions_total = sum.omissions_total;
    ro.messages_omitted = sum.messages_omitted;
    ro.corruptions_total = sum.corruptions_total;
    ro.messages_corrupted = sum.messages_corrupted;
    ro.survivors = static_cast<std::uint32_t>(st.alive().count());
    observer->on_run_end(ro);
  }
  return sum;
}

RunResult run_once(const ProcessFactory& factory, std::vector<Bit> inputs,
                   Adversary& adversary, EngineOptions options) {
  EngineWorkspace ws;
  Engine e(ws);
  RunResult res;
  e.run(factory, inputs, adversary, options, res);
  return res;
}

bool validity_holds(const std::vector<Bit>& inputs, const RunResult& result) {
  if (!result.has_decision) return true;  // vacuous
  const bool all0 = std::all_of(inputs.begin(), inputs.end(),
                                [](Bit b) { return b == Bit::Zero; });
  const bool all1 = std::all_of(inputs.begin(), inputs.end(),
                                [](Bit b) { return b == Bit::One; });
  if (!all0 && !all1) return true;
  const Bit required = all0 ? Bit::Zero : Bit::One;
  for (std::size_t i = 0; i < result.decisions.size(); ++i) {
    if (result.crashed[i] || !result.decided[i]) continue;
    if (result.decisions[i] != required) return false;
  }
  return true;
}

}  // namespace synran
