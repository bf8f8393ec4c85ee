// Test-side §3.1 bookkeeping checks over the rounds an EngineObserver saw.
//
// RunAuditor enforces the model live (budgets and caps, victims must be
// live senders, silence of the dead, STOP is final). These checks cover
// what it does not: that the engine's own round observations add up across
// rounds — the alive count starts at n and drops by exactly last round's
// crashes, every alive non-halted process sends, the reported budget is t
// minus the crashes so far, and the value counts fit in the sender count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/narrate.hpp"

namespace synran::testing_support {

struct InvariantReport {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }
  std::string first() const {
    return violations.empty() ? "" : violations.front();
  }
};

inline InvariantReport check_round_invariants(
    const obs::RunInfo& info,
    const std::vector<obs::RoundObservation>& rounds) {
  InvariantReport report;
  std::uint32_t prev_alive = info.n;
  std::uint32_t prev_crashes = 0;
  std::uint32_t crashed_so_far = 0;
  for (const obs::RoundObservation& r : rounds) {
    const std::string at = "round " + std::to_string(r.round) + ": ";
    if (prev_alive - r.alive != prev_crashes)
      report.fail(at + "alive drop does not match last round's crashes");
    if (r.senders != r.alive - r.halted)
      report.fail(at + "senders != alive - halted (" +
                  std::to_string(r.senders) + " vs " +
                  std::to_string(r.alive - r.halted) + ")");
    // Mask-carrying payloads (FloodMin, SynRan's det stage) may support
    // both values, so each side is bounded by the sender count separately.
    if (r.ones > r.senders || r.zeros > r.senders)
      report.fail(at + "payload value counts exceed senders");
    if (r.budget_left != info.t_budget - crashed_so_far)
      report.fail(at + "budget accounting diverged");
    crashed_so_far += r.crashes;
    prev_alive = r.alive;
    prev_crashes = r.crashes;
  }
  return report;
}

inline InvariantReport check_round_invariants(const RoundLog& log) {
  return check_round_invariants(log.info(), log.rounds());
}

}  // namespace synran::testing_support
