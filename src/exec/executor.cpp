#include "exec/executor.hpp"

#include <cstdlib>

#include "exec/rep_scheduler.hpp"

namespace synran::exec {

namespace {

/// One worker's engine state. The workspace outlives every rep the worker
/// runs, so thousands of reps reuse one set of buffers.
class RepRunner {
 public:
  RepRunner(const ProcessFactory& factory, const AdversaryFactory& adversaries,
            const RepeatSpec& spec)
      : factory_(factory), adversaries_(adversaries), spec_(spec) {}

  /// Runs repetition `rep` from its schema-2 streams alone.
  RunSummary operator()(std::size_t rep, obs::EngineObserver* observer) {
    Xoshiro256 input_rng = input_rng_for_rep(spec_.seed, rep);
    make_inputs(ws_.inputs(), spec_.n, spec_.pattern, input_rng);
    auto adversary = adversaries_(adversary_seed_for_rep(spec_.seed, rep));
    EngineOptions opts = spec_.engine;
    opts.seed = engine_seed_for_rep(spec_.seed, rep);
    opts.observer = observer;
    return engine_.run(factory_, ws_.inputs(), *adversary, opts);
  }

 private:
  const ProcessFactory& factory_;
  const AdversaryFactory& adversaries_;
  const RepeatSpec& spec_;
  EngineWorkspace ws_;
  Engine engine_{ws_};
};

}  // namespace

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SYNRAN_THREADS");
      env != nullptr && *env != '\0') {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    return n >= 1 ? static_cast<unsigned>(n) : 1u;
  }
  return 1;
}

RepeatedRunStats BatchExecutor::run(const ProcessFactory& factory,
                                    const AdversaryFactory& adversaries,
                                    const RepeatSpec& spec) const {
  return detail::run_reps<RepeatedRunStats, RunSummary>(
      detail::shape_of(spec),
      [&] { return RepRunner(factory, adversaries, spec); });
}

}  // namespace synran::exec
