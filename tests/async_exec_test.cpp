// Tests for the async batch executor and the event-driven engine's fault
// machinery: serial/parallel metrics equivalence (the async mirror of the
// ExecEquivalence suite), byte-identical observer streams at any thread
// count, structured scheduler-violation errors, fault-timetable injection,
// partial synchrony, retransmission recovery, and golden-pinned decision
// stats for the fixed-delay configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "async/benor.hpp"
#include "async/core.hpp"
#include "common/check.hpp"
#include "fail_fast_race.hpp"
#include "obs/trace_writer.hpp"
#include "runner/experiment.hpp"

namespace synran {
namespace {

std::vector<Bit> bits(std::initializer_list<int> xs) {
  std::vector<Bit> out;
  for (int x : xs) out.push_back(x ? Bit::One : Bit::Zero);
  return out;
}

struct DelayCase {
  const char* name;
  AsyncDelayFactory make;
};

struct SchedulerCase {
  const char* name;
  AsyncSchedulerFactory make;
};

AsyncRepeatSpec base_spec(std::uint64_t seed, unsigned threads) {
  AsyncRepeatSpec spec;
  spec.n = 8;
  spec.pattern = InputPattern::Random;
  spec.reps = 12;
  spec.seed = seed;
  spec.threads = threads;
  spec.engine.t_budget = 2;
  spec.engine.max_steps = 200000;
  return spec;
}

// ------------------------------------------------- serial <-> parallel

TEST(AsyncExecEquivalence, MetricsIdenticalAcrossThreadCounts) {
  // The full matrix: every (scheduler, delay) family must produce
  // bit-identical aggregate JSON at 1, 2, and 8 workers.
  const std::vector<SchedulerCase> schedulers = {
      {"random", random_scheduler_factory()},
      {"laggard", laggard_scheduler_factory()},
      {"stall", stall_scheduler_factory()},
  };
  const std::vector<DelayCase> delays = {
      {"held", held_delay_factory()},
      {"fixed", fixed_delay_factory(3)},
      {"uniform", uniform_delay_factory(1, 5)},
      {"gst", gst_delay_factory(20, 4)},
  };
  const BenOrAsyncFactory factory;
  for (const auto& sched : schedulers) {
    for (const auto& delay : delays) {
      // Pure asynchrony starves under stall — skip the one config whose
      // runs would just burn the step cap without deciding.
      if (std::string(sched.name) == "stall" &&
          std::string(delay.name) == "held") {
        continue;
      }
      std::string serial;
      for (unsigned threads : {1u, 2u, 8u}) {
        AsyncRepeatSpec spec = base_spec(99, threads);
        const AsyncRunStats stats =
            run_repeated_async(factory, sched.make, delay.make, spec);
        const std::string dump = stats.metrics().to_json().dump();
        if (threads == 1) {
          serial = dump;
          EXPECT_EQ(stats.reps(), spec.reps);
        } else {
          EXPECT_EQ(dump, serial)
              << sched.name << "/" << delay.name << " diverged at threads="
              << threads;
        }
      }
    }
  }
}

TEST(AsyncExecEquivalence, ObserverStreamByteIdenticalAcrossThreads) {
  // Traces written through the observer must match the serial run byte for
  // byte at any thread count (buffered + rep-order replay).
  const BenOrAsyncFactory factory;
  std::string serial;
  for (unsigned threads : {1u, 2u, 8u}) {
    std::ostringstream out;
    obs::JsonlTraceWriter writer(out);
    AsyncRepeatSpec spec = base_spec(7, threads);
    spec.engine.observer = &writer;
    run_repeated_async(factory, random_scheduler_factory(),
                       gst_delay_factory(30, 5), spec);
    if (threads == 1) {
      serial = out.str();
      EXPECT_FALSE(serial.empty());
      EXPECT_NE(serial.find("run_begin"), std::string::npos);
      EXPECT_NE(serial.find("run_end"), std::string::npos);
    } else {
      EXPECT_EQ(out.str(), serial) << "trace diverged at threads=" << threads;
    }
  }
}

TEST(AsyncExecEquivalence, DelayStreamDecoupledFromCoinStream) {
  // Same master seed, different delay models: the coin/scheduler streams
  // are untouched, so switching the delay family must not perturb how
  // inputs are drawn — reps count and safety hold either way.
  const BenOrAsyncFactory factory;
  AsyncRepeatSpec spec = base_spec(1234, 1);
  const AsyncRunStats a = run_repeated_async(
      factory, random_scheduler_factory(), fixed_delay_factory(1), spec);
  const AsyncRunStats b = run_repeated_async(
      factory, random_scheduler_factory(), uniform_delay_factory(1, 9), spec);
  EXPECT_TRUE(a.all_safe());
  EXPECT_TRUE(b.all_safe());
  EXPECT_EQ(a.reps(), b.reps());
}

// ------------------------------------------------- failure domains

/// Always returns an out-of-range deliver index: every rep fails.
class BrokenScheduler final : public AsyncScheduler {
 public:
  AsyncAction step(const AsyncWorld& world) override {
    return {AsyncAction::Kind::Deliver, world.pending().size() + 7, 0, {}};
  }
  const char* name() const override { return "broken"; }
};

TEST(AsyncExecFailures, FailFastThrowsEarliestRep) {
  const BenOrAsyncFactory factory;
  const AsyncSchedulerFactory broken = [](std::uint64_t) {
    return std::make_unique<BrokenScheduler>();
  };
  for (unsigned threads : {1u, 4u}) {
    AsyncRepeatSpec spec = base_spec(5, threads);
    try {
      run_repeated_async(factory, broken, held_delay_factory(), spec);
      FAIL() << "expected RepError";
    } catch (const RepError& e) {
      EXPECT_EQ(e.rep(), 0u) << "earliest failing rep not selected";
      EXPECT_EQ(e.seed(), engine_seed_for_rep(spec.seed, 0));
    }
  }
}

TEST(AsyncExecFailures, EarliestFailureRunsEvenWhenALaterRepFailsFirst) {
  const BenOrAsyncFactory factory;
  AsyncRepeatSpec spec = base_spec(4321, FailFastRace::kThreads);
  spec.reps = FailFastRace::kReps;
  FailFastRace race(spec.seed);
  const AsyncSchedulerFactory random = random_scheduler_factory();
  const AsyncSchedulerFactory faulty =
      race.factory<AsyncScheduler>([&] { return random(1); });
  try {
    run_repeated_async(factory, faulty, held_delay_factory(), spec);
    FAIL() << "expected the rep-2 failure";
  } catch (const RepError& e) {
    EXPECT_EQ(e.rep(), FailFastRace::kReportedRep) << e.what();
    EXPECT_EQ(e.seed(),
              engine_seed_for_rep(spec.seed, FailFastRace::kReportedRep));
  }
}

TEST(AsyncExecFailures, QuarantineKeepsGoing) {
  const BenOrAsyncFactory factory;
  const AsyncSchedulerFactory broken = [](std::uint64_t) {
    return std::make_unique<BrokenScheduler>();
  };
  AsyncRepeatSpec spec = base_spec(5, 2);
  spec.policy = FailurePolicy::Quarantine;
  const AsyncRunStats stats =
      run_repeated_async(factory, broken, held_delay_factory(), spec);
  EXPECT_EQ(stats.reps_quarantined(), spec.reps);
  EXPECT_EQ(stats.reps(), 0u);
  ASSERT_EQ(stats.failures().size(), spec.reps);
  for (std::size_t i = 0; i < stats.failures().size(); ++i) {
    EXPECT_EQ(stats.failures()[i].rep, i);  // rep-order fold
  }
}

// --------------------------------------------- scheduler drop validation

/// Crashes process 0 with a caller-chosen drop list, then delivers head.
class CrashWithDrops final : public AsyncScheduler {
 public:
  explicit CrashWithDrops(std::vector<std::size_t> drop)
      : drop_(std::move(drop)) {}
  AsyncAction step(const AsyncWorld& world) override {
    if (!world.crashed(0)) {
      AsyncAction a;
      a.kind = AsyncAction::Kind::Crash;
      a.victim = 0;
      a.drop = drop_;
      return a;
    }
    return {AsyncAction::Kind::Deliver, 0, 0, {}};
  }
  const char* name() const override { return "crash-with-drops"; }

 private:
  std::vector<std::size_t> drop_;
};

TEST(AsyncSchedulerViolation, DuplicateDropIndexIsRejected) {
  const BenOrAsyncFactory factory;
  CrashWithDrops sched({0, 0});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  try {
    run_async(factory, bits({0, 1, 0}), sched, opts);
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate drop index"),
              std::string::npos)
        << e.what();
  }
}

TEST(AsyncSchedulerViolation, OutOfRangeDropIndexIsRejected) {
  const BenOrAsyncFactory factory;
  CrashWithDrops sched({999});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  try {
    run_async(factory, bits({0, 1, 0}), sched, opts);
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
}

TEST(AsyncSchedulerViolation, DropOfLiveSendersMessageIsRejected) {
  // The start pumps pool messages in send order: indices 0..2 are process
  // 0's broadcast, 3..5 process 1's. Index 3 is live traffic, not the
  // victim's, so dropping it must be refused.
  const BenOrAsyncFactory factory;
  CrashWithDrops sched({3});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  try {
    run_async(factory, bits({0, 1, 0}), sched, opts);
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("not crash victim"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------- fault timetable

TEST(AsyncEngineFaults, TimetableCrashComposesWithTimedDelays) {
  const BenOrAsyncFactory factory;
  FifoScheduler sched;  // never consulted: everything is timed
  FixedDelay delay(5);
  AsyncFaultTimetable faults;
  faults.crashes.push_back({12, 0});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  opts.delay = &delay;
  opts.faults = &faults;
  const AsyncRunResult res =
      run_async(factory, bits({0, 1, 1, 0, 1}), sched, opts);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_GT(res.end_time, 12u);
}

TEST(AsyncEngineFaults, TimetableCrashPastBudgetThrows) {
  const BenOrAsyncFactory factory;
  FifoScheduler sched;
  FixedDelay delay(5);
  AsyncFaultTimetable faults;
  faults.crashes.push_back({5, 0});
  faults.crashes.push_back({6, 1});
  AsyncEngineOptions opts;
  opts.t_budget = 1;  // second injection exceeds the budget
  opts.delay = &delay;
  opts.faults = &faults;
  EXPECT_THROW(run_async(factory, bits({0, 1, 1, 0, 1}), sched, opts),
               InvariantError);
}

TEST(AsyncEngineFaults, OmissionInjectionSpendsBudgetAndDropsMessages) {
  const BenOrAsyncFactory factory;
  FifoScheduler sched;
  FixedDelay delay(5);
  AsyncFaultTimetable faults;
  faults.omissions.push_back({2, 0, 3});
  AsyncEngineOptions opts;
  opts.t_budget = 0;
  opts.omission_budget = 1;
  opts.delay = &delay;
  opts.faults = &faults;
  BenOrOptions retransmit;
  retransmit.retransmit_every = 20;  // keeps the run live despite the drops
  const AsyncRunResult res = run_async(BenOrAsyncFactory(retransmit),
                                       bits({0, 1, 1, 0, 1}), sched, opts);
  EXPECT_EQ(res.omissions, 1u);
  EXPECT_EQ(res.messages_omitted, 3u);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);

  opts.omission_budget = 0;  // same injection, no budget: must throw
  EXPECT_THROW(run_async(factory, bits({0, 1, 1, 0, 1}), sched, opts),
               InvariantError);
}

// ------------------------------------------------- partial synchrony

TEST(AsyncPartialSynchrony, StallSchedulerStarvesPureAsynchrony) {
  const BenOrAsyncFactory factory;
  StallScheduler sched;
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  const AsyncRunResult res = run_async(factory, bits({0, 1, 0}), sched, opts);
  EXPECT_FALSE(res.terminated);
  EXPECT_EQ(res.steps, 0u);  // nothing was ever delivered
}

TEST(AsyncPartialSynchrony, GstDeadlinesForceDecisionAfterGst) {
  const BenOrAsyncFactory factory;
  StallScheduler sched;  // extremal adversary: only deadlines deliver
  GstDelay delay(100, 7);
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  opts.delay = &delay;
  const AsyncRunResult res =
      run_async(factory, bits({0, 1, 1, 0, 1}), sched, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_GE(res.decision_time, delay.gst());
  EXPECT_EQ(res.steps, res.messages_delivered);
}

TEST(AsyncPartialSynchrony, RetransmissionRecoversOmittedQuorum) {
  // Drop both round-1 report broadcasts of processes 0 and 1 entirely: no
  // process can reach its n-t = 3 quorum, so the message-driven protocol
  // starves. The retransmission timer is exactly what restores liveness.
  const auto inputs = bits({0, 1, 1, 0});
  FifoScheduler sched;
  AsyncFaultTimetable faults;
  faults.omissions.push_back({1, 0, 4});
  faults.omissions.push_back({1, 1, 4});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  opts.omission_budget = 2;
  opts.faults = &faults;
  FixedDelay delay(1);
  opts.delay = &delay;
  opts.max_steps = 5000;

  const AsyncRunResult bare =
      run_async(BenOrAsyncFactory(), inputs, sched, opts);
  EXPECT_FALSE(bare.terminated) << "expected starvation without retransmit";

  BenOrOptions retransmit;
  retransmit.retransmit_every = 10;
  const AsyncRunResult recovered =
      run_async(BenOrAsyncFactory(retransmit), inputs, sched, opts);
  EXPECT_TRUE(recovered.terminated);
  EXPECT_TRUE(recovered.agreement);
  EXPECT_GT(recovered.timers_fired, 0u);
}

// ------------------------------------------------- golden pins

TEST(AsyncGolden, FixedDelayBenOrPinned) {
  // The event-driven analog of the old step engine's lockstep-ish runs:
  // fixed unit delay, FIFO event order, no faults. Pinned so accidental
  // changes to event ordering, codec, or coin streams surface loudly.
  // (First pin of this config — the old engine had no timed mode, so there
  // is no prior golden to carry over; values recorded from the initial
  // event-core implementation.)
  const BenOrAsyncFactory factory;
  FifoScheduler sched;
  FixedDelay delay(1);
  AsyncEngineOptions opts;
  opts.t_budget = 2;
  opts.seed = 42;
  opts.delay = &delay;
  const AsyncRunResult res =
      run_async(factory, bits({0, 1, 0, 1, 0, 1, 0, 1}), sched, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.steps, res.messages_delivered);
  // Golden values (seed 42, n=8, t=2, alternating inputs):
  EXPECT_EQ(res.max_round, 3u);
  EXPECT_EQ(res.messages_delivered, 240u);
  EXPECT_EQ(res.coin_flips, 8u);
  EXPECT_EQ(res.end_time, 4u);
  EXPECT_EQ(to_int(res.decision), 1);
}

TEST(AsyncGolden, AdversaryHeldBatchPinned) {
  // The compat configuration: no delay model, random scheduler — the exact
  // semantics of the retired step engine. Pinned at the batch level.
  const BenOrAsyncFactory factory;
  AsyncRepeatSpec spec = base_spec(2024, 1);
  const AsyncRunStats stats = run_repeated_async(
      factory, random_scheduler_factory(), held_delay_factory(), spec);
  EXPECT_TRUE(stats.all_safe());
  EXPECT_EQ(stats.reps(), 12u);
  EXPECT_EQ(stats.decided_one(), 4u);
  EXPECT_DOUBLE_EQ(stats.messages_delivered().mean(), 308.16666666666669);
  EXPECT_DOUBLE_EQ(stats.coin_flips().mean(), 7.0833333333333339);
}

}  // namespace
}  // namespace synran
