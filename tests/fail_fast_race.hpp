// A deterministic reproduction of the fail-fast race for 2-thread batches,
// shared by the sync executor, async executor and serve-path tests.
//
// Parallel batches shard reps round-robin: worker 0 runs reps 0, 2, 4, …
// and worker 1 runs 1, 3, 5, …. The factory built here makes rep 0 block
// until rep 3 has failed, so in wall time rep 3 fails first, while worker 0
// still has rep 2 ahead of it. Rep 2 fails too. A fail-fast batch must run
// rep 2 anyway and report it, the earliest failing rep, exactly as a serial
// batch would. No sleeps: the only wait is on a latch that rep 3 releases.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <stdexcept>

#include "exec/batch.hpp"

namespace synran {

class FailFastRace {
 public:
  static constexpr unsigned kThreads = 2;
  static constexpr std::size_t kReps = 6;
  static constexpr std::size_t kReportedRep = 2;

  explicit FailFastRace(std::uint64_t master_seed)
      : rep0_(adversary_seed_for_rep(master_seed, 0)),
        rep2_(adversary_seed_for_rep(master_seed, 2)),
        rep3_(adversary_seed_for_rep(master_seed, 3)) {}

  /// A per-rep factory (keyed, like the executors' adversary and scheduler
  /// factories, by the rep's derived adversary seed) that injects the race
  /// and otherwise returns `healthy()`.
  template <typename T>
  std::function<std::unique_ptr<T>(std::uint64_t)> factory(
      std::function<std::unique_ptr<T>()> healthy) {
    return [this, healthy](std::uint64_t seed) -> std::unique_ptr<T> {
      if (seed == rep0_) rep3_failed_.wait();
      if (seed == rep2_) throw std::runtime_error("boom at rep 2");
      if (seed == rep3_) {
        if (!released_.exchange(true)) rep3_failed_.count_down();
        throw std::runtime_error("boom at rep 3");
      }
      return healthy();
    };
  }

 private:
  std::uint64_t rep0_, rep2_, rep3_;
  std::latch rep3_failed_{1};
  std::atomic<bool> released_{false};
};

}  // namespace synran
