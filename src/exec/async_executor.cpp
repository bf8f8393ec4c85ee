#include "exec/async_executor.hpp"

#include <memory>
#include <vector>

#include "exec/rep_scheduler.hpp"

namespace synran::exec {

AsyncRunStats AsyncBatchExecutor::run(const AsyncProcessFactory& factory,
                                      const AsyncSchedulerFactory& schedulers,
                                      const AsyncDelayFactory& delays,
                                      const AsyncRepeatSpec& spec) const {
  const detail::BatchShape shape = detail::shape_of(spec);
  SYNRAN_REQUIRE(static_cast<bool>(schedulers),
                 "need a scheduler factory");
  // Every rep builds its own processes, scheduler and delay model, so a
  // worker carries no state between reps.
  auto run_rep = [&](std::size_t rep, obs::EngineObserver* observer) {
    Xoshiro256 input_rng = input_rng_for_rep(spec.seed, rep);
    const std::vector<Bit> inputs =
        make_inputs(spec.n, spec.pattern, input_rng);
    auto scheduler = schedulers(adversary_seed_for_rep(spec.seed, rep));
    std::unique_ptr<DelayModel> delay;
    if (delays) delay = delays(delay_seed_for_rep(spec.seed, rep));
    AsyncEngineOptions opts = spec.engine;
    opts.seed = engine_seed_for_rep(spec.seed, rep);
    if (delay != nullptr) opts.delay = delay.get();
    opts.observer = observer;
    return run_async(factory, inputs, *scheduler, opts);
  };
  return detail::run_reps<AsyncRunStats, AsyncRunResult>(
      shape, [&] { return run_rep; });
}

}  // namespace synran::exec
