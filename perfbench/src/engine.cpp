// The engine workloads, e1b_wide, e1b_mid and small_reps_par, and the
// traced batch they share with serve_mixed.
//
// They drive the repository only through BatchExecutor::run. The untraced
// run repeats one fixed batch (inputs derived from --seed) until --seconds
// have passed and reports the median batch. The traced run (--trace 1)
// executes the same batch once more with delegating ProcessFactory /
// AdversaryFactory / Adversary wrappers and a timing EngineObserver
// installed, and splits the batch wall time into the repository's layers.
#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "adversary/basic.hpp"
#include "adversary/coinbias.hpp"
#include "bench.hpp"
#include "exec/executor.hpp"
#include "net/fabric.hpp"
#include "obs/trace_binary.hpp"
#include "protocols/synran.hpp"
#include "serve/cache.hpp"

namespace perfbench {

namespace {

using synran::AdversaryFactory;
using synran::DynBitset;
using synran::FaultPlan;
using synran::Payload;
using synran::ProcessId;
using synran::RepeatSpec;
using synran::RepeatedRunStats;

/// The fixed shape of one workload's batch.
struct EngineShape {
  std::uint32_t n = 0;
  std::uint32_t t = 0;
  std::size_t reps = 0;  ///< per batch
  unsigned threads = 1;
  bool coinbias = false;  ///< else the random crash adversary
  bool trace_file = false;  ///< write a synran-trace/2 file per batch
};

EngineShape shape_for(const std::string& workload, bool tiny) {
  if (workload == "e1b_wide") {
    // t = n-1: the paper's large-n regime, where delivery dominates.
    return tiny ? EngineShape{512, 511, 2, 1, true, false}
                : EngineShape{16384, 16383, 2, 1, true, false};
  }
  if (workload == "e1b_mid") {
    // The same regime at a size and thread count that keep the figures
    // steady on a shared host. On a 4-core VM, sets of ten 30-second runs
    // on one worker spread by 0.22 at n = 2048, and by 0.08 and then 0.36
    // at n = 1024 (IQR/median of ns_per_process_round); on two workers at
    // n = 1024, eight such runs stayed within 53-57 ns.
    return tiny ? EngineShape{256, 255, 4, 2, true, false}
                : EngineShape{1024, 1023, 240, 2, true, false};
  }
  if (workload == "small_reps_par") {
    // ~4 rounds x 64 processes per rep: per-rep setup, sharding, the
    // rep-order fold and the trace replay carry the cost.
    return tiny ? EngineShape{64, 32, 400, 2, false, true}
                : EngineShape{64, 32, 20000, 2, false, true};
  }
  throw std::invalid_argument("unknown engine workload '" + workload + "'");
}

AdversaryFactory adversary_factory(const EngineShape& shape) {
  // The same parameters `synran run --adversary coinbias|random` uses.
  if (shape.coinbias) {
    return [](std::uint64_t s) -> std::unique_ptr<synran::Adversary> {
      return std::make_unique<synran::CoinBiasAdversary>(
          synran::CoinBiasOptions{0.55, true, s});
    };
  }
  return [](std::uint64_t s) -> std::unique_ptr<synran::Adversary> {
    return std::make_unique<synran::RandomCrashAdversary>(
        synran::RandomCrashAdversary::Options{2, 0.6, s});
  };
}

RepeatSpec spec_for(const EngineShape& shape, std::uint64_t seed,
                    unsigned threads) {
  RepeatSpec spec;
  spec.n = shape.n;
  spec.pattern = synran::InputPattern::Random;
  spec.engine.t_budget = shape.t;
  spec.reps = shape.reps;
  spec.seed = seed;
  spec.threads = threads;
  return spec;
}

/// Σ over reps of rounds_to_halt (every rep terminated: checked apart).
std::uint64_t total_rounds(const RepeatedRunStats& stats) {
  return static_cast<std::uint64_t>(stats.rounds_to_halt().sum() + 0.5);
}

std::uint64_t total_delivered(const RepeatedRunStats& stats) {
  return static_cast<std::uint64_t>(stats.messages_delivered().sum() + 0.5);
}

std::string file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return std::to_string(bytes.size()) + ":" +
         synran::serve::cache_file_stem(bytes);
}

synran::obs::Trace2Header trace_header() {
  synran::obs::Trace2Header h;
  h.seed_schema = static_cast<std::uint16_t>(synran::kSeedSchemaVersion);
  h.git_rev = "perfbench";
  return h;
}

/// The expected result of the workload's batch, fixed before timing.
struct Reference {
  std::string checkpoint;  ///< RepeatedRunStats::checkpoint_json().dump()
  std::string trace;       ///< digest of the 1-thread trace file, if any
};

/// Checks one finished batch against the reference and counts failures.
void check_batch(const RepeatedRunStats& stats, const Reference& ref,
                 const std::string& trace_digest, const char* what,
                 Outcome& out) {
  const std::size_t reps = stats.reps() + stats.reps_quarantined();
  if (!stats.all_safe()) {
    out.fail(stats.agreement_failures() + stats.validity_failures() +
                 stats.non_terminated(),
             std::string(what) + ": unsafe reps (agreement/validity/"
                                 "termination failures)");
  }
  if (stats.checkpoint_json().dump() != ref.checkpoint) {
    out.fail(reps, std::string(what) +
                       ": checkpoint_json differs from the reference batch");
  }
  if (trace_digest != ref.trace) {
    out.fail(reps, std::string(what) + ": trace bytes " + trace_digest +
                       " differ from the 1-thread reference " + ref.trace);
  }
}

// ---------------------------------------------------------------------------
// Traced run: wrappers around the public interfaces.

/// One crash-victim set of a captured round, with its deliver_to masks
/// interned (CoinBias gives thousands of victims one shared mask).
struct CapturedRound {
  std::uint32_t n = 0;
  std::vector<Payload> payloads;
  DynBitset sending;
  DynBitset receivers;  ///< alive, not halted, not crashed this round
  std::vector<DynBitset> masks;
  std::vector<std::pair<ProcessId, std::uint32_t>> crashes;  ///< mask index
  std::vector<synran::OmissionDirective> omissions;
  std::vector<synran::CorruptionDirective> corruptions;
  std::int64_t rep = -1;
};

/// Per-rep activity of one worker thread.
struct RepActivity {
  std::int64_t rep = -1;
  std::int64_t first_make = -1;
  std::int64_t last_make_end = -1;
  std::int64_t last_plan_end = -1;
};

/// Everything one thread records. Threads never share a log.
struct WorkerLog {
  std::int64_t make_ns = 0;
  std::uint64_t make_calls = 0;
  std::int64_t factory_ns = 0;
  std::int64_t plan_ns = 0;
  std::uint64_t plan_calls = 0;
  std::uint64_t victims = 0;
  std::uint64_t distinct_masks = 0;
  std::uint64_t partial_receipts = 0;
  std::int64_t capture_ns = 0;  ///< the wrapper's own copying
  // The latest plan_round call, read by the serial observer.
  std::int64_t last_wrapper_ns = 0;
  std::vector<RepActivity> reps;
  std::vector<CapturedRound> rounds;
  SpanLog spans;
};

/// Hands each thread its own WorkerLog.
class Tracer {
 public:
  explicit Tracer(const RepeatSpec& spec) : generation_(++generations_) {
    for (std::size_t k = 0; k < spec.reps; ++k) {
      rep_of_seed_.emplace(synran::adversary_seed_for_rep(spec.seed, k), k);
    }
  }

  WorkerLog& local() {
    thread_local std::uint64_t cached_generation = 0;
    thread_local WorkerLog* cached = nullptr;
    if (cached_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<WorkerLog>());
      cached = logs_.back().get();
      cached_generation = generation_;
    }
    return *cached;
  }

  std::int64_t rep_of_seed(std::uint64_t seed) const {
    const auto it = rep_of_seed_.find(seed);
    return it == rep_of_seed_.end() ? -1 : static_cast<std::int64_t>(it->second);
  }

  const std::vector<std::unique_ptr<WorkerLog>>& logs() const { return logs_; }

 private:
  static inline std::uint64_t generations_ = 0;
  std::uint64_t generation_;
  std::unordered_map<std::uint64_t, std::size_t> rep_of_seed_;
  std::mutex mu_;
  std::vector<std::unique_ptr<WorkerLog>> logs_;
};

class TracingFactory final : public synran::ProcessFactory {
 public:
  TracingFactory(const synran::ProcessFactory& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::unique_ptr<synran::Process> make(ProcessId id, std::uint32_t n,
                                        synran::Bit input) const override {
    const std::int64_t t0 = now_ns();
    auto p = inner_.make(id, n, input);
    const std::int64_t t1 = now_ns();
    WorkerLog& log = tracer_.local();
    log.make_ns += t1 - t0;
    ++log.make_calls;
    if (!log.reps.empty()) {
      RepActivity& a = log.reps.back();
      if (a.first_make < 0) a.first_make = t0;
      a.last_make_end = t1;
    }
    return p;
  }
  const char* name() const override { return inner_.name(); }

 private:
  const synran::ProcessFactory& inner_;
  Tracer& tracer_;
};

class TracingAdversary final : public synran::Adversary {
 public:
  TracingAdversary(std::unique_ptr<synran::Adversary> inner, Tracer& tracer,
                   std::int64_t rep)
      : inner_(std::move(inner)), tracer_(tracer), rep_(rep) {}

  void begin(std::uint32_t n, std::uint32_t t_budget) override {
    inner_->begin(n, t_budget);
  }

  FaultPlan plan_round(const synran::WorldView& world) override {
    const std::int64_t t0 = now_ns();
    FaultPlan plan = inner_->plan_round(world);
    const std::int64_t t1 = now_ns();
    WorkerLog& log = tracer_.local();
    capture(world, plan, log);
    const std::int64_t t2 = now_ns();
    log.plan_ns += t1 - t0;
    ++log.plan_calls;
    log.capture_ns += t2 - t1;
    log.last_wrapper_ns = t2 - t0;
    if (!log.reps.empty()) log.reps.back().last_plan_end = t1;
    log.spans.add("adversary.plan", t0, t1, -1, rep_);
    return plan;
  }

  const char* name() const override { return inner_->name(); }

 private:
  /// Copies what a later replay through synran::deliver needs, interning
  /// the crash masks, and counts the plan's shape.
  void capture(const synran::WorldView& world, const FaultPlan& plan,
               WorkerLog& log) const {
    const std::uint32_t n = world.n();
    CapturedRound r;
    r.n = n;
    r.rep = rep_;
    r.payloads.assign(n, 0);
    r.sending = DynBitset(n);
    for (ProcessId i = 0; i < n; ++i) {
      if (const auto p = world.payloads()[i]; p.has_value()) {
        r.payloads[i] = *p;
        r.sending.set(i);
      }
    }
    r.receivers = world.alive();
    world.halted().for_each_set([&](std::size_t i) { r.receivers.reset(i); });
    for (const auto& c : plan.crashes) {
      r.receivers.reset(c.victim);
      std::uint32_t idx = 0;
      while (idx < r.masks.size() && !(r.masks[idx] == c.deliver_to)) ++idx;
      if (idx == r.masks.size()) r.masks.push_back(c.deliver_to);
      r.crashes.emplace_back(c.victim, idx);
    }
    std::vector<std::uint64_t> popcounts;
    for (const auto& m : r.masks) popcounts.push_back(m.count());
    for (const auto& c : r.crashes) log.partial_receipts += popcounts[c.second];
    log.victims += plan.crashes.size();
    log.distinct_masks += r.masks.size();
    r.omissions = plan.omissions;
    r.corruptions = plan.corruptions;
    log.rounds.push_back(std::move(r));
  }

  std::unique_ptr<synran::Adversary> inner_;
  Tracer& tracer_;
  std::int64_t rep_;
};

AdversaryFactory tracing_adversaries(const AdversaryFactory& inner,
                                     Tracer& tracer) {
  return [&inner, &tracer](std::uint64_t seed)
             -> std::unique_ptr<synran::Adversary> {
    WorkerLog& log = tracer.local();
    const std::int64_t rep = tracer.rep_of_seed(seed);
    log.reps.push_back(RepActivity{rep, -1, -1, -1});
    const std::int64_t t0 = now_ns();
    auto adv = inner(seed);
    log.factory_ns += now_ns() - t0;
    return std::make_unique<TracingAdversary>(std::move(adv), tracer, rep);
  };
}

/// Timestamps the callback boundaries. In a serial batch the callbacks
/// arrive live, so the gaps between them are the engine's phases; in a
/// parallel batch they are the executor's rep-order replay. Forwards every
/// callback to `inner` (the real trace writer) when one is set, timing it.
class TimingObserver final : public synran::obs::EngineObserver {
 public:
  TimingObserver(Tracer& tracer, synran::obs::EngineObserver* inner)
      : tracer_(tracer), inner_(inner) {}

  void on_run_begin(const synran::obs::RunInfo& info) override {
    const std::int64_t in = enter();
    n_ = info.n;
    ++rep_;
    forward([&] { inner_->on_run_begin(info); });
    leave(in);
  }
  void on_round_begin(const synran::obs::RoundObservation& round) override {
    const std::int64_t in = enter();
    round_span_ = tracer_.local().spans.add("sim.round", last_exit_, last_exit_,
                                            -1, rep_);
    phase_a_ns += segment("sim.phase_a", in);
    forward([&] { inner_->on_round_begin(round); });
    leave(in);
  }
  void on_fault_plan(synran::Round round,
                     const synran::FaultPlan& plan) override {
    const std::int64_t in = enter();
    // The adversary (and its wrapper's copying) ran inside this gap on the
    // same thread; what is left is WorldView set-up plus the plan audit.
    const WorkerLog& log = tracer_.local();
    const std::int64_t gap = in - last_exit_;
    plan_audit_ns += gap - log.last_wrapper_ns;
    segment("sim.plan_audit", in);
    forward([&] { inner_->on_fault_plan(round, plan); });
    leave(in);
  }
  void on_deliveries(synran::Round round, std::uint64_t delivered) override {
    const std::int64_t in = enter();
    phase_b_ns += segment("sim.phase_b", in);
    forward([&] { inner_->on_deliveries(round, delivered); });
    leave(in);
  }
  void on_round_end(const synran::obs::RoundObservation& round) override {
    const std::int64_t in = enter();
    commit_ns += segment("sim.commit", in);
    tracer_.local().spans.close(round_span_, in);
    round_span_ = -1;
    ++rounds;
    forward([&] { inner_->on_round_end(round); });
    leave(in);
  }
  void on_run_end(const synran::obs::RunObservation& result) override {
    const std::int64_t in = enter();
    // The final silent round's phase A plus the verdict harvest.
    phase_a_ns += segment("sim.phase_a", in);
    process_rounds += static_cast<std::uint64_t>(n_) * result.rounds_to_halt;
    forward([&] { inner_->on_run_end(result); });
    leave(in);
  }
  void on_run_abandoned(const synran::obs::RunAbandoned& failure) override {
    const std::int64_t in = enter();
    forward([&] { inner_->on_run_abandoned(failure); });
    leave(in);
  }

  std::int64_t phase_a_ns = 0;
  std::int64_t plan_audit_ns = 0;
  std::int64_t phase_b_ns = 0;
  std::int64_t commit_ns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t process_rounds = 0;
  std::int64_t callback_ns = 0;  ///< this observer's own time, incl. writes
  std::int64_t write_ns = 0;     ///< inside the wrapped trace writer
  std::int64_t first_entry = -1;
  std::int64_t last_exit = -1;

 private:
  std::int64_t enter() {
    const std::int64_t t = now_ns();
    if (first_entry < 0) {
      first_entry = t;
      last_exit_ = t;
    }
    return t;
  }
  void leave(std::int64_t in) {
    last_exit_ = now_ns();
    last_exit = last_exit_;
    callback_ns += last_exit_ - in;
  }
  std::int64_t segment(const char* name, std::int64_t in) {
    tracer_.local().spans.add(name, last_exit_, in, round_span_, rep_);
    return in - last_exit_;
  }
  template <typename F>
  void forward(F&& call) {
    if (inner_ == nullptr) return;
    const std::int64_t t0 = now_ns();
    call();
    const std::int64_t t1 = now_ns();
    write_ns += t1 - t0;
    tracer_.local().spans.add("obs.trace_write", t0, t1, -1, rep_);
  }

  Tracer& tracer_;
  synran::obs::EngineObserver* inner_;
  std::uint32_t n_ = 0;
  std::int64_t rep_ = -1;
  std::int64_t last_exit_ = 0;
  std::int64_t round_span_ = -1;  ///< the open sim.round span
};

/// Replays every captured round through synran::deliver, timing only the
/// call. Returns (deliver ns, links delivered).
std::pair<std::int64_t, std::uint64_t> replay_deliveries(
    const Tracer& tracer, SpanLog& spans) {
  std::int64_t ns = 0;
  std::uint64_t links = 0;
  for (const auto& log : tracer.logs()) {
    for (const CapturedRound& r : log->rounds) {
      std::vector<std::optional<Payload>> payloads(r.n);
      for (ProcessId i = 0; i < r.n; ++i) {
        if (r.sending.test(i)) payloads[i] = r.payloads[i];
      }
      FaultPlan plan;
      for (const auto& [victim, mask] : r.crashes) {
        plan.crashes.push_back(synran::CrashDirective{victim, r.masks[mask]});
      }
      plan.omissions = r.omissions;
      plan.corruptions = r.corruptions;
      const synran::RoundTraffic traffic{payloads, &plan};
      const std::int64_t t0 = now_ns();
      const auto receipts = synran::deliver(r.n, traffic, r.receivers);
      const std::int64_t t1 = now_ns();
      ns += t1 - t0;
      spans.add("net.deliver", t0, t1, -1, r.rep);
      r.receivers.for_each_set([&](std::size_t i) { links += receipts[i].count; });
    }
  }
  return {ns, links};
}

void put(std::map<std::string, Metric>& m, const std::string& name,
         double value, const char* unit, std::size_t samples = 1) {
  m[name] = Metric{value, unit, samples};
}

}  // namespace

TracedBatch traced_batch(const synran::ProcessFactory& protocol,
                         const AdversaryFactory& adversaries,
                         const RepeatSpec& base, const std::string& trace_path,
                         LayerTotals& totals, std::ostream& spans_out,
                         const std::string& label) {
  Tracer tracer(base);
  const TracingFactory factory(protocol, tracer);
  const AdversaryFactory traced_adversaries =
      tracing_adversaries(adversaries, tracer);

  std::unique_ptr<synran::obs::BinaryTraceWriter> writer;
  if (!trace_path.empty()) {
    writer = std::make_unique<synran::obs::BinaryTraceWriter>(trace_path,
                                                              trace_header());
  }
  TimingObserver observer(tracer, writer.get());
  RepeatSpec spec = base;
  spec.engine.observer = &observer;

  const synran::exec::BatchExecutor executor;
  const std::int64_t t0 = now_ns();
  RepeatedRunStats stats = executor.run(factory, traced_adversaries, spec);
  const std::int64_t t1 = now_ns();
  TracedBatch result{std::move(stats), std::string(), 0};
  if (writer) {
    writer->close();
    result.trace_digest = file_digest(trace_path);
    totals.trace_events += writer->events_written();
    totals.trace_bytes += writer->bytes_written();
    totals.traced_file = true;
  }

  SpanLog replay_spans;
  const auto [deliver_ns, links] = replay_deliveries(tracer, replay_spans);

  // Fold the per-thread logs. Every thread that ran a rep owns one log, so
  // a log's rep activity is that worker's busy time.
  std::int64_t last_activity = t0;
  std::size_t worker = 0;
  for (const auto& log : tracer.logs()) {
    totals.make_ns += log->make_ns;
    totals.make_calls += log->make_calls;
    totals.factory_ns += log->factory_ns;
    totals.plan_ns += log->plan_ns;
    totals.plan_calls += log->plan_calls;
    totals.victims += log->victims;
    totals.distinct_masks += log->distinct_masks;
    totals.partial_receipts += log->partial_receipts;
    totals.capture_ns += log->capture_ns;
    std::int64_t busy = 0;
    for (const RepActivity& a : log->reps) {
      if (a.rep < 0 || a.first_make < 0 || a.last_plan_end < 0) continue;
      busy += a.last_plan_end - a.first_make;
      last_activity = std::max(last_activity, a.last_plan_end);
      const std::int64_t rep_span =
          log->spans.add("exec.rep", a.first_make, a.last_plan_end, -1, a.rep);
      log->spans.add("protocols.make", a.first_make, a.last_make_end,
                     rep_span, a.rep);
    }
    if (busy == 0) continue;  // the calling thread of a parallel batch
    if (totals.worker_busy_ns.size() <= worker) {
      totals.worker_busy_ns.resize(worker + 1, 0);
    }
    totals.worker_busy_ns[worker++] += busy;
    totals.busy_ns += busy;
  }
  const unsigned threads = std::max(1u, spec.threads);
  totals.capacity_ns += static_cast<std::int64_t>(threads) * (last_activity - t0);
  totals.tail_ns += t1 - last_activity;
  totals.wall_ns += t1 - t0;
  totals.reps += spec.reps;
  ++totals.batches;
  totals.parallel = totals.parallel || threads > 1;
  totals.deliver_ns += deliver_ns;
  totals.links += links;
  result.links = links;
  totals.phase_a_ns += observer.phase_a_ns;
  totals.plan_audit_ns += observer.plan_audit_ns;
  totals.phase_b_ns += observer.phase_b_ns;
  totals.commit_ns += observer.commit_ns;
  totals.rounds += observer.rounds;
  totals.process_rounds += observer.process_rounds;
  totals.callback_ns += observer.callback_ns;
  totals.write_ns += observer.write_ns;
  if (threads > 1 && observer.first_entry >= 0) {
    // The replay runs on the calling thread after the join; its span minus
    // the writer's share is the executor's replay cost.
    totals.replay_ns +=
        observer.last_exit - observer.first_entry - observer.write_ns;
  }

  std::size_t thread_index = 0;
  for (const auto& log : tracer.logs()) {
    log->spans.write(spans_out, label + "." + std::to_string(thread_index++));
  }
  replay_spans.write(spans_out, label + ".replay");
  return result;
}

void put_layers(const LayerTotals& s, bool rest, const char* what,
                Outcome& out) {
  const std::int64_t bench_overhead = s.callback_ns - s.write_ns + s.capture_ns;
  const std::int64_t adversary_self = s.plan_ns + s.factory_ns;
  // The gaps between callbacks are the engine's phases only when the
  // observer sees the live engine, i.e. in a serial batch. The net replay
  // estimates the deliver inside phase B.
  const std::int64_t sim_self = s.phase_a_ns + s.plan_audit_ns + s.phase_b_ns -
                                s.deliver_ns + s.commit_ns;
  auto& m = out.per_layer;
  if (!s.parallel) {
    put(m, "sim.phase_a_ns", static_cast<double>(s.phase_a_ns), "ns");
    put(m, "sim.plan_audit_ns", static_cast<double>(s.plan_audit_ns), "ns");
    put(m, "sim.phase_b_ns", static_cast<double>(s.phase_b_ns), "ns");
    put(m, "sim.commit_ns", static_cast<double>(s.commit_ns), "ns");
    put(m, "sim.self_ns", static_cast<double>(sim_self), "ns");
    // Serial batches' wall time splits exactly into the layers' self
    // times, the tracing's own cost, and what no span covers.
    const std::int64_t parts[] = {sim_self,   adversary_self, s.deliver_ns,
                                  s.make_ns,  s.write_ns,     bench_overhead};
    std::int64_t attributed = 0;
    for (const std::int64_t part : parts) attributed += part;
    put(m, "unattributed_ns", static_cast<double>(s.wall_ns - attributed),
        "ns");
    out.notes.push_back(
        std::string(what) + ": sim.self " + std::to_string(sim_self) +
        " + adversary.self " + std::to_string(adversary_self) +
        " + net.deliver " + std::to_string(s.deliver_ns) +
        " + protocols.make " + std::to_string(s.make_ns) +
        " + obs.trace_write " + std::to_string(s.write_ns) +
        " + bench.overhead " + std::to_string(bench_overhead) +
        " + unattributed " + std::to_string(s.wall_ns - attributed) +
        " = batch wall " + std::to_string(s.wall_ns) + " ns");
  }
  if (!rest) return;

  put(m, "exec.batch_ns", static_cast<double>(s.wall_ns), "ns", s.batches);
  put(m, "protocols.make_calls", static_cast<double>(s.make_calls), "count");
  put(m, "protocols.make_ns", static_cast<double>(s.make_ns), "ns");
  put(m, "adversary.plan_ns", static_cast<double>(s.plan_ns), "ns");
  put(m, "adversary.plan_calls", static_cast<double>(s.plan_calls), "count");
  put(m, "adversary.victims", static_cast<double>(s.victims), "count");
  put(m, "adversary.distinct_masks", static_cast<double>(s.distinct_masks),
      "count");
  put(m, "adversary.factory_ns", static_cast<double>(s.factory_ns), "ns");
  put(m, "adversary.self_ns", static_cast<double>(adversary_self), "ns");
  put(m, "net.deliver_ns", static_cast<double>(s.deliver_ns), "ns");
  put(m, "net.partial_receipts", static_cast<double>(s.partial_receipts),
      "count");
  put(m, "net.links_delivered", static_cast<double>(s.links), "count");
  put(m, "sim.rounds", static_cast<double>(s.rounds), "count");
  put(m, "sim.process_rounds", static_cast<double>(s.process_rounds), "count");
  // Without a trace file nothing is written: the counts are genuinely 0.
  put(m, "obs.trace_events", static_cast<double>(s.trace_events), "count");
  put(m, "obs.trace_bytes", static_cast<double>(s.trace_bytes), "bytes");
  if (s.traced_file) {
    put(m, "obs.trace_write_ns", static_cast<double>(s.write_ns), "ns");
  } else {
    out.absent["obs.trace_write_ns"] = "no trace output on this workload";
  }
  put(m, "exec.worker_busy_ns", static_cast<double>(s.busy_ns), "ns");
  std::string per_worker = "worker busy ns:";
  for (std::size_t w = 0; w < s.worker_busy_ns.size(); ++w) {
    per_worker += " worker" + std::to_string(w) + " " +
                  std::to_string(s.worker_busy_ns[w]);
  }
  out.notes.push_back(per_worker);
  put(m, "exec.worker_idle_frac",
      s.capacity_ns > 0 ? 1.0 - static_cast<double>(s.busy_ns) /
                                    static_cast<double>(s.capacity_ns)
                        : 0.0,
      "ratio");
  put(m, "exec.tail_ns", static_cast<double>(s.tail_ns), "ns");
  put(m, "bench.overhead_ns", static_cast<double>(bench_overhead), "ns");
  if (s.parallel) {
    put(m, "exec.replay_ns", static_cast<double>(s.replay_ns), "ns");
  } else {
    out.absent["exec.replay_ns"] =
        "serial batches: observer callbacks fire live, there is no replay";
  }
}

Outcome run_engine(const Params& p) {
  Outcome out;
  const EngineShape shape = shape_for(p.workload, p.tiny);
  const synran::SynRanFactory protocol;
  const AdversaryFactory adversaries = adversary_factory(shape);
  const synran::exec::BatchExecutor executor;
  const std::string trace_path = p.work + "/batch.trace2";

  // Runs one batch; returns (wall ns, CPU ns of all threads, stats, trace
  // digest).
  auto run_batch = [&](unsigned threads) {
    RepeatSpec spec = spec_for(shape, p.seed, threads);
    std::unique_ptr<synran::obs::BinaryTraceWriter> writer;
    if (shape.trace_file) {
      writer = std::make_unique<synran::obs::BinaryTraceWriter>(
          trace_path, trace_header());
      spec.engine.observer = writer.get();
    }
    const std::int64_t c0 = cpu_ns();
    const std::int64_t t0 = now_ns();
    RepeatedRunStats stats = executor.run(protocol, adversaries, spec);
    const std::int64_t t1 = now_ns();
    const std::int64_t c1 = cpu_ns();
    std::string digest;
    if (writer) {
      writer->close();
      digest = file_digest(trace_path);
    }
    return std::make_tuple(t1 - t0, c1 - c0, std::move(stats), digest);
  };

  // Reference, outside the timed region: the 1-thread batch fixes the
  // expected checkpoint and trace bytes.
  Reference ref;
  {
    [[maybe_unused]] auto [wall, cpu, stats, digest] = run_batch(1);
    ref.checkpoint = stats.checkpoint_json().dump();
    ref.trace = digest;
    out.attempted += shape.reps;
    if (!stats.all_safe()) out.fail(shape.reps, "reference batch is unsafe");
  }
  out.notes.push_back(
      "reference (1 thread): checkpoint digest " +
      synran::serve::cache_file_stem(ref.checkpoint) +
      (ref.trace.empty() ? std::string() : ", trace bytes " + ref.trace));
  if (p.inject == "checkpoint") ref.checkpoint += " ";
  if (p.inject == "trace-digest") ref.trace = "0:" + ref.trace;

  // Setup: building a rep's run state (its inputs, the n processes and
  // the adversary), as the executor does before the rep's first round. A
  // sample builds and drops the run state of a block of reps (about 8192
  // processes) and counts the mean CPU time per rep. Samples are taken
  // between the timed batches, so their median covers the whole run like
  // the batches', and so are the host-probe samples.
  std::vector<double> setup;
  const std::size_t block = std::max<std::size_t>(1, 8192 / shape.n);
  std::vector<synran::Bit> inputs;
  std::vector<std::unique_ptr<synran::Process>> procs;
  auto sample_setup = [&] {
    bool built = true;
    const std::int64_t t0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    for (std::size_t b = 0; b < block; ++b) {
      const std::size_t rep = (setup.size() * block + b) % shape.reps;
      synran::Xoshiro256 rng = synran::input_rng_for_rep(p.seed, rep);
      synran::make_inputs(inputs, shape.n, synran::InputPattern::Random, rng);
      procs.clear();
      for (ProcessId i = 0; i < shape.n; ++i) {
        procs.push_back(protocol.make(i, shape.n, inputs[i]));
      }
      built = built && adversaries(synran::adversary_seed_for_rep(
                           p.seed, rep)) != nullptr;
    }
    const std::int64_t t1 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    setup.push_back(static_cast<double>(t1 - t0) * 1e-9 /
                    static_cast<double>(block));
    procs.clear();
    if (!built) out.fail(block, "adversary factory returned no adversary");
  };

  // Timed batches until --seconds have passed (at least three).
  std::vector<double> reps_per_s;
  std::vector<double> ns_ppr;
  std::vector<double> cpu_ns_ppr;
  std::vector<double> probes;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(p.seconds * 1e9);
  while (reps_per_s.size() < 3 || now_ns() < deadline) {
    std::int64_t wall = 0;
    std::int64_t cpu = 0;
    std::optional<RepeatedRunStats> stats;
    std::string digest;
    try {
      auto [w, c, s, d] = run_batch(shape.threads);
      wall = w;
      cpu = c;
      stats.emplace(std::move(s));
      digest = d;
    } catch (const std::exception& e) {
      out.attempted += shape.reps;
      out.fail(shape.reps, std::string("batch threw: ") + e.what());
      break;
    }
    out.attempted += shape.reps;
    check_batch(*stats, ref, digest, "timed batch", out);
    const double process_rounds = static_cast<double>(shape.n) *
                                  static_cast<double>(total_rounds(*stats));
    reps_per_s.push_back(static_cast<double>(shape.reps) /
                         (static_cast<double>(wall) * 1e-9));
    ns_ppr.push_back(static_cast<double>(wall) / process_rounds);
    cpu_ns_ppr.push_back(static_cast<double>(cpu) / process_rounds);
    for (int i = 0; i < 5; ++i) {
      sample_setup();
      probes.push_back(host_probe_cpu_ns());
    }
  }
  const double peak_rss = peak_rss_mib();

  auto& m = out.end_to_end;
  if (!reps_per_s.empty()) {
    put(m, "reps_per_s", median(reps_per_s), "reps/s", reps_per_s.size());
    put(m, "ns_per_process_round", median(ns_ppr), "ns", ns_ppr.size());
    put(m, "cpu_ns_per_process_round",
        at_reference_speed(median(cpu_ns_ppr), probes), "ns",
        cpu_ns_ppr.size());
    put(m, "raw_cpu_ns_per_process_round", median(cpu_ns_ppr), "ns",
        cpu_ns_ppr.size());
  }
  put(m, "peak_rss_mb", peak_rss, "MiB");
  put(m, "setup_s", at_reference_speed(median(setup), probes), "s",
      setup.size());
  put(m, "raw_setup_s", median(setup), "s", setup.size());
  put(m, "host_probe_ns", median(probes), "ns", probes.size());
  out.notes.push_back("batch: n=" + std::to_string(shape.n) +
                      " t=" + std::to_string(shape.t) + " reps=" +
                      std::to_string(shape.reps) + " threads=" +
                      std::to_string(shape.threads) + ", " +
                      std::to_string(reps_per_s.size()) + " timed batches");
  if (!p.trace || reps_per_s.empty()) return out;

  std::ofstream spans(p.work + "/spans.tsv", std::ios::trunc);
  spans << "thread\tparent\tid\tname\tstart_ns\tend_ns\n";
  auto traced = [&](unsigned threads, const char* what, LayerTotals& totals) {
    const std::string path = shape.trace_file ? p.work + "/traced.trace2" : "";
    const TracedBatch b =
        traced_batch(protocol, adversaries, spec_for(shape, p.seed, threads),
                     path, totals, spans, threads > 1 ? "par" : "serial");
    out.attempted += shape.reps;
    check_batch(b.stats, ref, b.trace_digest, what, out);
    if (b.links != total_delivered(b.stats)) {
      out.fail(shape.reps, std::string(what) + ": replayed deliveries (" +
                               std::to_string(b.links) +
                               " links) differ from the engine's count (" +
                               std::to_string(total_delivered(b.stats)) + ")");
    }
  };
  LayerTotals totals;
  traced(shape.threads, "traced batch", totals);
  put_layers(totals, true, "traced batch", out);
  if (shape.threads > 1) {
    // The observer saw the replay, not the live engine: a serial traced
    // batch gives the sim phases.
    LayerTotals serial;
    traced(1, "serial traced batch", serial);
    put_layers(serial, false, "serial traced batch", out);
  }
  mark_serve_not_run(out);

  // Tracing overhead: the traced batch's end-to-end figures minus the
  // untraced medians.
  put(out.overhead, "reps_per_s",
      static_cast<double>(totals.reps) /
              (static_cast<double>(totals.wall_ns) * 1e-9) -
          m.at("reps_per_s").value,
      "reps/s");
  put(out.overhead, "ns_per_process_round",
      static_cast<double>(totals.wall_ns) /
              static_cast<double>(totals.process_rounds) -
          m.at("ns_per_process_round").value,
      "ns");
  return out;
}

}  // namespace perfbench
