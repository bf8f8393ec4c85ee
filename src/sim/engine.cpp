#include "sim/engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "net/fabric.hpp"
#include "obs/observer.hpp"
#include "sim/audit.hpp"

namespace synran {

namespace {

/// Snapshot of the engine state right after phase A, in observer vocabulary.
obs::RoundObservation observe_round(
    Round round, std::uint32_t n, const DynBitset& alive,
    const DynBitset& halted,
    const std::vector<std::optional<Payload>>& payloads,
    const std::vector<std::unique_ptr<Process>>& procs,
    std::uint32_t budget_left) {
  obs::RoundObservation ro;
  ro.round = round;
  ro.alive = static_cast<std::uint32_t>(alive.count());
  ro.halted = static_cast<std::uint32_t>(halted.count());
  ro.budget_left = budget_left;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (alive.test(i) && procs[i]->decided()) ++ro.decided;
    const auto& p = payloads[i];
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

  ws_.prepare(n);
  auto& procs = ws_.procs_;
  auto& coins = ws_.coins_;
  for (std::uint32_t i = 0; i < n; ++i) {
    procs[i] = factory.make(i, n, inputs[i]);
    coins[i].reseed(seeds.stream(i));
  }

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

  DynBitset& alive = ws_.alive_;    // not crashed by the adversary
  DynBitset& halted = ws_.halted_;  // voluntarily stopped
  auto& payloads = ws_.payloads_;
  auto& receipts = ws_.receipts_;
  auto& have_receipt = ws_.have_receipt_;

  RunSummary sum;
  std::uint32_t budget_left = options.t_budget;
  std::uint32_t omission_budget_left = options.omission_budget;
  std::uint32_t corruption_budget_left = options.byzantine_budget;

  for (Round r = 1; r <= options.max_rounds; ++r) {
    // --- Phase A: local computation, coins, message preparation.
    bool anyone_sending = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!alive.test(i) || halted.test(i)) {
        payloads[i].reset();
        continue;
      }
      const Receipt* prev = have_receipt[i] != 0 ? &receipts[i] : nullptr;
      payloads[i] = procs[i]->on_round(prev, coins[i]);
      if (!payloads[i].has_value()) {
        SYNRAN_CHECK_MSG(procs[i]->decided(),
                         "process halted without deciding");
        halted.set(i);
      } else {
        anyone_sending = true;
      }
    }

    // Decision bookkeeping. A process decides while digesting the previous
    // round's receipt, so "all decided as of phase A of round r" means the
    // protocol reached decision in round r-1 (paper counting).
    if (sum.rounds_to_decision == 0 && r > 1) {
      bool all_decided = true;
      for (std::uint32_t i = 0; i < n && all_decided; ++i)
        if (alive.test(i) && !procs[i]->decided()) all_decided = false;
      if (all_decided) sum.rounds_to_decision = r - 1;
    }

    auditor.on_phase_a(r, payloads, halted, procs);

    if (!anyone_sending) {
      // Everyone alive has halted: the last communication round was r-1.
      sum.rounds_to_halt = r - 1;
      sum.terminated = true;
      break;
    }

    obs::RoundObservation round_obs;
    if (observer != nullptr) {
      round_obs =
          observe_round(r, n, alive, halted, payloads, procs, budget_left);
      observer->on_round_begin(round_obs);
    }

    // --- Adversary intervention.
    const std::uint32_t cap = options.per_round_cap;
    WorldView world(r, n, alive, halted, payloads, procs, budget_left, cap,
                    omission_budget_left, options.omission_round_cap,
                    corruption_budget_left, options.byzantine_round_cap);
    FaultPlan plan = adversary.plan_round(world);
    auditor.on_plan(r, plan, payloads);
    if (observer != nullptr) observer->on_fault_plan(r, plan);

    // --- Phase B: delivery to surviving, non-halted receivers.
    std::uint64_t round_delivered = 0;
    std::uint64_t round_omitted = 0;
    std::uint64_t round_corrupted = 0;
    DynBitset receivers = alive;
    for (const auto& c : plan.crashes) receivers.reset(c.victim);
    {
      DynBitset active = receivers;
      halted.for_each_set([&](std::size_t i) { active.reset(i); });
      RoundTraffic traffic{payloads, &plan};
      auto delivered = deliver(n, traffic, active);
      const std::uint64_t before = sum.messages_delivered;
      active.for_each_set([&](std::size_t i) {
        receipts[i] = delivered[i];
        have_receipt[i] = 1;
        sum.messages_delivered += delivered[i].count;
      });
      round_delivered = sum.messages_delivered - before;
      for (const auto& o : plan.omissions)
        round_omitted += o.drop_for.count_and(active);
      for (const auto& cd : plan.corruptions)
        for (const auto& fg : cd.forgeries)
          if (active.test(fg.target)) ++round_corrupted;
      auditor.on_deliveries(r, plan, payloads, active, round_delivered);
      if (observer != nullptr) observer->on_deliveries(r, round_delivered);
    }

    // Commit the crashes and the omission/corruption spend.
    budget_left -= static_cast<std::uint32_t>(plan.crash_count());
    sum.crashes_total += static_cast<std::uint32_t>(plan.crash_count());
    omission_budget_left -= static_cast<std::uint32_t>(plan.omission_count());
    sum.omissions_total += static_cast<std::uint32_t>(plan.omission_count());
    sum.messages_omitted += round_omitted;
    corruption_budget_left -=
        static_cast<std::uint32_t>(plan.corruption_count());
    sum.corruptions_total +=
        static_cast<std::uint32_t>(plan.corruption_count());
    sum.messages_corrupted += round_corrupted;
    if (full != nullptr)
      ws_.crashes_per_round_.push_back(
          static_cast<std::uint32_t>(plan.crash_count()));
    for (const auto& c : plan.crashes) alive.reset(c.victim);
    if (observer != nullptr) {
      round_obs.crashes = static_cast<std::uint32_t>(plan.crash_count());
      round_obs.delivered = round_delivered;
      round_obs.omissions = static_cast<std::uint32_t>(plan.omission_count());
      round_obs.omitted = round_omitted;
      round_obs.corruptions =
          static_cast<std::uint32_t>(plan.corruption_count());
      round_obs.corrupted = round_corrupted;
      observer->on_round_end(round_obs);
    }
  }

  // Harvest final status: agreement across surviving deciders, and the
  // validity verdict while the inputs are still in hand.
  bool first = true;
  bool agree = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!alive.test(i) || !procs[i]->decided()) continue;
    const Bit d = procs[i]->decision();
    sum.has_decision = true;
    if (first) {
      sum.decision = d;
      first = false;
    } else if (d != sum.decision) {
      agree = false;
    }
  }
  sum.agreement = sum.has_decision && agree;
  if (!sum.terminated) sum.rounds_to_halt = options.max_rounds;

  if (sum.has_decision) {
    const bool all0 = std::all_of(inputs.begin(), inputs.end(),
                                  [](Bit b) { return b == Bit::Zero; });
    const bool all1 = std::all_of(inputs.begin(), inputs.end(),
                                  [](Bit b) { return b == Bit::One; });
    if (all0 || all1) {
      const Bit required = all0 ? Bit::Zero : Bit::One;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!alive.test(i) || !procs[i]->decided()) continue;
        if (procs[i]->decision() != required) {
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
      if (!alive.test(i)) {
        full->crashed[i] = true;
        continue;
      }
      full->decided[i] = procs[i]->decided();
      if (full->decided[i]) full->decisions[i] = procs[i]->decision();
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
    ro.survivors = static_cast<std::uint32_t>(alive.count());
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
