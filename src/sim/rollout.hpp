// Forking a live execution.
//
// The full-information adversary of the paper evaluates "what would happen if
// I crashed these processes" — formally, the probabilities Pr[v | α_k, b] that
// define valency (§3.2). Computing them exactly is exponential; the
// simulation-scale substitute (documented in DESIGN.md) estimates them by
// Monte-Carlo: fork the execution visible in a WorldView
// (ExecutionState::fork), apply a candidate fault plan to the pending round,
// and run the copy to completion under a continuation strategy with fresh
// randomness.
#pragma once

#include <cstdint>

#include "sim/adversary.hpp"

namespace synran {

/// Outcome of one rollout.
struct RolloutOutcome {
  bool terminated = false;     ///< all survivors halted within the cap
  bool decided_one = false;    ///< unanimous survivors' decision was 1
  bool agreement = true;       ///< survivors agreed (false = protocol bug)
  std::uint32_t extra_rounds = 0;  ///< rounds played beyond the fork point
};

/// Plays the execution in `world` forward to completion: `first_plan` is
/// applied to the pending round; `continuation` chooses every later plan
/// (receiving proper WorldViews with the decremented budget). Randomness for
/// process coins derives from `seed`. Every plan must respect the view's
/// per-round cap and the remaining budget (InvariantError otherwise).
RolloutOutcome rollout(const WorldView& world, const FaultPlan& first_plan,
                       Adversary& continuation, std::uint64_t seed,
                       std::uint32_t max_extra_rounds = 100000);

}  // namespace synran
