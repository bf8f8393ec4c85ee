// The in-memory trace tape (obs/trace_tape.hpp) that carries a parallel
// batch's callbacks from its workers to the rep-order replay.
//
// The trace file formats drop RoundBegin, FaultPlan and Deliveries, so the
// byte-identity suites elsewhere cannot see a lossy plan encoding. These
// tests compare a hash over every field of every callback instead: crash
// victims and deliver_to masks, omission senders and drop_for masks,
// forgeries, delivery counts and abandonment text. TraceTape covers the
// encoding on synthetic streams; ExecTapeFidelity runs real batches at 1
// and 4 threads (the parallel side goes through the tape, the serial side
// fires live) and requires the two hashes to match. CI runs both suites
// under ASan+UBSan, where a misaligned or overlong memcpy would show, and
// ExecTapeFidelity under TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/basic.hpp"
#include "async/benor.hpp"
#include "exec/executor.hpp"
#include "obs/observer.hpp"
#include "obs/trace_tape.hpp"
#include "runner/experiment.hpp"
#include "runner/run_spec.hpp"

namespace synran {
namespace {

/// Folds every field of every callback into one 64-bit hash and counts
/// what it saw, so a test can check that its batch exercised each part.
class FieldHash final : public obs::EngineObserver {
 public:
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::uint64_t callbacks = 0;
  std::uint64_t crashes = 0, omissions = 0, forgeries = 0;
  std::uint64_t abandoned = 0, abandoned_text = 0;

  void on_run_begin(const obs::RunInfo& i) override {
    tag(1);
    mix(i.n, i.t_budget, i.per_round_cap, i.seed, i.omission_budget,
        i.omission_round_cap, i.byzantine_budget, i.byzantine_round_cap);
  }
  void on_round_begin(const obs::RoundObservation& r) override {
    tag(2);
    round(r);
  }
  void on_fault_plan(Round r, const FaultPlan& plan) override {
    tag(3);
    mix(r, plan.crashes.size(), plan.omissions.size(),
        plan.corruptions.size());
    for (const CrashDirective& c : plan.crashes) {
      mix(c.victim);
      mask(c.deliver_to);
    }
    for (const OmissionDirective& o : plan.omissions) {
      mix(o.sender);
      mask(o.drop_for);
    }
    for (const CorruptionDirective& c : plan.corruptions) {
      mix(c.sender, c.forgeries.size());
      for (const auto& f : c.forgeries) mix(f.target, f.forged);
      forgeries += c.forgeries.size();
    }
    crashes += plan.crashes.size();
    omissions += plan.omissions.size();
  }
  void on_deliveries(Round r, std::uint64_t delivered) override {
    tag(4);
    mix(r, delivered);
  }
  void on_round_end(const obs::RoundObservation& r) override {
    tag(5);
    round(r);
  }
  void on_run_end(const obs::RunObservation& e) override {
    tag(6);
    mix(e.terminated, e.agreement, e.has_decision, e.decision,
        e.rounds_to_decision, e.rounds_to_halt, e.crashes_total,
        e.messages_delivered, e.omissions_total, e.messages_omitted,
        e.corruptions_total, e.messages_corrupted, e.survivors);
  }
  void on_run_abandoned(const obs::RunAbandoned& a) override {
    tag(7);
    mix(a.rep, a.seed, a.attempt, a.error.size());
    for (const char c : a.error) mix(static_cast<unsigned char>(c));
    ++abandoned;
    if (!a.error.empty()) ++abandoned_text;
  }

 private:
  void tag(std::uint64_t kind) {
    ++callbacks;
    mix(kind);
  }
  void round(const obs::RoundObservation& r) {
    mix(r.round, r.alive, r.halted, r.senders, r.ones, r.zeros,
        r.deterministic, r.decided, r.budget_left, r.crashes, r.delivered,
        r.omissions, r.omitted, r.corruptions, r.corrupted);
  }
  // Walks the set bits rather than the words the tape stores, so the hash
  // does not share the encoding's view of a mask.
  void mask(const DynBitset& m) {
    mix(m.size(), m.count());
    m.for_each_set([this](std::size_t i) { mix(i); });
  }
  template <typename... Ts>
  void mix(Ts... values) {
    for (const std::uint64_t v : {static_cast<std::uint64_t>(values)...}) {
      hash ^= v;
      hash *= 0x100000001b3ULL;
      hash ^= hash >> 29;
    }
  }
};

// ------------------------------------------------------------ TraceTape

DynBitset mask_of(std::size_t n, std::initializer_list<std::size_t> bits) {
  DynBitset m(n);
  for (const std::size_t b : bits) m.set(b);
  return m;
}

/// A plan with every directive family at n = 70, whose masks straddle the
/// word boundary and fill the partial last word.
FaultPlan big_plan() {
  FaultPlan plan;
  plan.crashes.push_back({3, mask_of(70, {0, 1, 63, 64, 69})});
  plan.crashes.push_back({64, DynBitset(70, true)});
  plan.crashes.push_back({69, DynBitset(70)});
  plan.omissions.push_back({5, mask_of(70, {2, 65, 68})});
  plan.omissions.push_back({66, mask_of(70, {63})});
  plan.corruptions.push_back({7, {{0, 1}, {63, ~0ULL}, {69, 6}}});
  plan.corruptions.push_back({8, {}});
  return plan;
}

FaultPlan small_plan() {
  FaultPlan plan;
  plan.crashes.push_back({2, mask_of(70, {10})});
  return plan;
}

/// Fires one stream with every callback kind (and extreme values) on `to`.
void fire_stream(obs::EngineObserver& to, const FaultPlan& plan) {
  obs::RunInfo info;
  info.n = 70;
  info.t_budget = 35;
  info.per_round_cap = 4;
  info.seed = 0xFFFF'FFFF'FFFF'FFF5ULL;
  info.omission_budget = 9;
  info.byzantine_budget = 11;
  info.byzantine_round_cap = 2;
  to.on_run_begin(info);

  obs::RoundObservation round;
  round.round = 1;
  round.alive = 70;
  round.senders = 69;
  round.ones = 40;
  round.zeros = 29;
  round.budget_left = 35;
  to.on_round_begin(round);
  to.on_fault_plan(1, plan);
  to.on_deliveries(1, 4761);
  round.crashes = static_cast<std::uint32_t>(plan.crashes.size());
  round.delivered = 4761;
  round.omissions = static_cast<std::uint32_t>(plan.omissions.size());
  round.omitted = 4;
  round.corruptions = static_cast<std::uint32_t>(plan.corruptions.size());
  round.corrupted = 3;
  to.on_round_end(round);
  to.on_fault_plan(2, FaultPlan{});

  obs::RunObservation end;
  end.terminated = true;
  end.agreement = true;
  end.has_decision = true;
  end.decision = 1;
  end.rounds_to_decision = 1;
  end.rounds_to_halt = 2;
  end.messages_delivered = 0x8000'0000'0000'0001ULL;
  end.survivors = 67;
  to.on_run_end(end);

  to.on_run_abandoned(obs::RunAbandoned{17, 0xBEEF, 2, "engine exploded"});
  to.on_run_abandoned(obs::RunAbandoned{18, 1, 0, ""});
  to.on_run_abandoned(
      obs::RunAbandoned{19, 2, 1, std::string("nul\0inside", 10)});
}

std::uint64_t direct_hash(const FaultPlan& plan) {
  FieldHash h;
  fire_stream(h, plan);
  return h.hash;
}

TEST(TraceTape, ReplayReproducesEveryCallbackExactly) {
  obs::TraceTape tape;
  fire_stream(tape, big_plan());
  FieldHash replayed;
  tape.replay(replayed);
  EXPECT_EQ(replayed.hash, direct_hash(big_plan()));
  EXPECT_EQ(replayed.callbacks, 10u);
  EXPECT_EQ(replayed.crashes, 3u);
  EXPECT_EQ(replayed.omissions, 2u);
  EXPECT_EQ(replayed.forgeries, 3u);
  EXPECT_EQ(replayed.abandoned, 3u);
}

TEST(TraceTape, ReaderYieldsEveryKindAsARecord) {
  obs::TraceTape tape;
  fire_stream(tape, big_plan());
  obs::TraceTapeReader reader(tape);
  std::vector<obs::TraceRecord> records;
  obs::TraceRecord record;
  while (reader.next(record)) records.push_back(record);
  ASSERT_EQ(records.size(), 10u);
  EXPECT_FALSE(reader.next(record));

  EXPECT_EQ(records[0].kind, obs::TraceRecordKind::RunBegin);
  EXPECT_EQ(records[0].begin.seed, 0xFFFF'FFFF'FFFF'FFF5ULL);
  EXPECT_EQ(records[1].kind, obs::TraceRecordKind::RoundBegin);
  ASSERT_EQ(records[2].kind, obs::TraceRecordKind::FaultPlan);
  const FaultPlan want = big_plan();
  const FaultPlan& got = records[2].plan;
  EXPECT_EQ(records[2].plan_round, 1u);
  ASSERT_EQ(got.crashes.size(), want.crashes.size());
  for (std::size_t i = 0; i < want.crashes.size(); ++i) {
    EXPECT_EQ(got.crashes[i].victim, want.crashes[i].victim);
    EXPECT_EQ(got.crashes[i].deliver_to, want.crashes[i].deliver_to);
  }
  ASSERT_EQ(got.omissions.size(), want.omissions.size());
  for (std::size_t i = 0; i < want.omissions.size(); ++i) {
    EXPECT_EQ(got.omissions[i].sender, want.omissions[i].sender);
    EXPECT_EQ(got.omissions[i].drop_for, want.omissions[i].drop_for);
  }
  ASSERT_EQ(got.corruptions.size(), want.corruptions.size());
  EXPECT_EQ(got.corruptions[0].forgeries[1].target, 63u);
  EXPECT_EQ(got.corruptions[0].forgeries[1].forged, ~0ULL);
  EXPECT_TRUE(got.corruptions[1].forgeries.empty());
  EXPECT_EQ(records[3].kind, obs::TraceRecordKind::Deliveries);
  EXPECT_EQ(records[3].delivered, 4761u);
  EXPECT_EQ(records[4].kind, obs::TraceRecordKind::RoundEnd);
  EXPECT_EQ(records[4].round.corrupted, 3u);
  EXPECT_TRUE(records[5].plan.empty());
  EXPECT_EQ(records[6].kind, obs::TraceRecordKind::RunEnd);
  EXPECT_EQ(records[6].end.messages_delivered, 0x8000'0000'0000'0001ULL);
  EXPECT_EQ(records[7].abandoned.error, "engine exploded");
  EXPECT_EQ(records[7].abandoned.rep, 17u);
  EXPECT_EQ(records[8].abandoned.error, "");
  EXPECT_EQ(records[9].abandoned.error, std::string("nul\0inside", 10));
  EXPECT_EQ(records[9].abandoned.attempt, 1u);
}

TEST(TraceTape, OneReaderServesTapesWhosePlansShrinkAndGrow) {
  // The reader moves directives between the plan and its spares as plan
  // sizes change; a reused reader must decode each tape as a fresh one.
  obs::TraceTape big, small;
  fire_stream(big, big_plan());
  fire_stream(small, small_plan());
  obs::TraceTapeReader reader;
  for (const obs::TraceTape* tape : {&big, &small, &big, &small, &small}) {
    FieldHash h;
    reader.rewind(*tape);
    reader.replay(h);
    EXPECT_EQ(h.hash,
              direct_hash(tape == &big ? big_plan() : small_plan()));
  }
}

TEST(TraceTape, CopiesAndClearsKeepTheStream) {
  obs::TraceTape tape;
  EXPECT_TRUE(tape.empty());
  fire_stream(tape, big_plan());
  const obs::TraceTape copy = tape;
  EXPECT_EQ(copy.size_bytes(), tape.size_bytes());
  tape.clear();
  EXPECT_TRUE(tape.empty());
  FieldHash none;
  tape.replay(none);
  EXPECT_EQ(none.callbacks, 0u);
  fire_stream(tape, small_plan());
  FieldHash h;
  copy.replay(h);
  EXPECT_EQ(h.hash, direct_hash(big_plan()));
}

// ----------------------------------------------------- ExecTapeFidelity

obs::JsonValue json(const std::string& text) {
  const auto parsed = obs::JsonValue::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.has_value() ? *parsed : obs::JsonValue::object();
}

/// Runs a sync config at `threads` with a FieldHash installed.
FieldHash sync_hash(const std::string& config, unsigned threads,
                    const AdversaryFactory* adversaries = nullptr) {
  RunPlan plan = build_plan(json(config), threads);
  FieldHash h;
  plan.spec.engine.observer = &h;
  run_repeated(*plan.factory, adversaries ? *adversaries : plan.adversaries,
               plan.spec);
  return h;
}

TEST(ExecTapeFidelity, SyncFaultPlansMatchTheSerialStream) {
  // n = 70 leaves a partial last mask word. The random crash adversary
  // runs under each link-fault layer so the plans mix directive families.
  for (const char* faults : {"", "omit:0.3", "byz:0.3"}) {
    const std::string config =
        std::string(R"({"n":70,"t":35,"adversary":"random","reps":12,)") +
        R"("seed":77,"faults":")" + faults + R"("})";
    const FieldHash serial = sync_hash(config, 1);
    const FieldHash parallel = sync_hash(config, 4);
    EXPECT_EQ(parallel.hash, serial.hash) << faults;
    EXPECT_EQ(parallel.callbacks, serial.callbacks) << faults;
    EXPECT_GT(serial.crashes, 0u) << faults;
    if (std::string(faults) == "omit:0.3") {
      EXPECT_GT(serial.omissions, 0u);
    }
    if (std::string(faults) == "byz:0.3") {
      EXPECT_GT(serial.forgeries, 0u);
    }
  }
}

TEST(ExecTapeFidelity, AsyncStreamMatchesTheSerialStream) {
  const std::string config =
      R"({"model":"async","n":9,"reps":10,"seed":5,"delay":"uniform:1,4"})";
  std::vector<FieldHash> hashes;
  for (unsigned threads : {1u, 4u}) {
    RunPlan plan = build_plan(json(config), threads);
    FieldHash h;
    plan.aspec.engine.observer = &h;
    const BenOrAsyncFactory factory(plan.benor);
    run_repeated_async(factory, plan.schedulers, plan.delays, plan.aspec);
    hashes.push_back(h);
  }
  EXPECT_GT(hashes[0].callbacks, 0u);
  EXPECT_EQ(hashes[1].hash, hashes[0].hash);
  EXPECT_EQ(hashes[1].callbacks, hashes[0].callbacks);
}

/// Delegates to `inner`, but throws once round `fail_round` comes up.
class FailingAdversary final : public Adversary {
 public:
  FailingAdversary(std::unique_ptr<Adversary> inner, Round fail_round)
      : inner_(std::move(inner)), fail_round_(fail_round) {}

  void begin(std::uint32_t n, std::uint32_t t) override { inner_->begin(n, t); }
  FaultPlan plan_round(const WorldView& world) override {
    if (world.round() == fail_round_) {
      throw std::runtime_error("injected fault in round " +
                               std::to_string(fail_round_));
    }
    return inner_->plan_round(world);
  }
  const char* name() const override { return "failing"; }

 private:
  std::unique_ptr<Adversary> inner_;
  Round fail_round_;
};

TEST(ExecTapeFidelity, QuarantinedRetriesCarryTheirErrorText) {
  // Rep 2 fails in its second round and rep 5 while its adversary is
  // built, on every attempt: with two retries each is abandoned three
  // times, mid-run and during setup, before quarantine drops it.
  const std::string config =
      R"({"n":70,"t":35,"adversary":"random","reps":9,"seed":31,)"
      R"("fail_policy":"quarantine","retries":2})";
  const AdversaryFactory healthy =
      build_plan(json(config), 1).adversaries;
  const std::uint64_t mid_run = adversary_seed_for_rep(31, 2);
  const std::uint64_t setup = adversary_seed_for_rep(31, 5);
  const AdversaryFactory failing =
      [=](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    if (seed == setup) throw std::runtime_error("adversary factory failed");
    if (seed == mid_run)
      return std::make_unique<FailingAdversary>(healthy(seed), 2);
    return healthy(seed);
  };
  const FieldHash serial = sync_hash(config, 1, &failing);
  const FieldHash parallel = sync_hash(config, 4, &failing);
  EXPECT_EQ(serial.abandoned, 6u);
  EXPECT_EQ(serial.abandoned_text, 6u);
  EXPECT_EQ(parallel.hash, serial.hash);
  EXPECT_EQ(parallel.callbacks, serial.callbacks);
}

}  // namespace
}  // namespace synran
