#include "sim/rollout.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/execution.hpp"

namespace synran {

RolloutOutcome rollout(const WorldView& world, const FaultPlan& first_plan,
                       Adversary& continuation, std::uint64_t seed,
                       std::uint32_t max_extra_rounds) {
  ExecutionState st = ExecutionState::fork(world);
  const std::uint32_t cap = world.round_cap();
  Round round = world.round();
  const auto apply = [&](const FaultPlan& plan) {
    SYNRAN_CHECK_MSG(cap == 0 || plan.crash_count() <= cap,
                     "rollout plan exceeds per-round cap");
    st.apply(plan);
    ++round;
  };

  SeedSequence seeds(seed);
  std::vector<RandomCoinSource> coins;
  coins.reserve(st.n());
  for (ProcessId i = 0; i < st.n(); ++i) coins.emplace_back(seeds.stream(i));

  RolloutOutcome out;
  apply(first_plan);
  for (std::uint32_t step = 0; step < max_extra_rounds; ++step) {
    const bool anyone =
        st.phase_a([&coins](ProcessId i) -> CoinSource& { return coins[i]; });
    ++out.extra_rounds;
    if (!anyone) {
      out.terminated = true;
      break;
    }
    apply(continuation.plan_round(st.view(round, cap)));
  }

  const SurvivorVerdict v = st.verdict();
  out.agreement = v.all_decided ? v.agreement : true;
  out.decided_one = v.agreement && v.decision == Bit::One;
  return out;
}

}  // namespace synran
