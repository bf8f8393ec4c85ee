// E1 — Theorem 2/3: SynRan's expected rounds scale as
// Θ(t/√(n·ln(2+t/√n))) against the adaptive coin-bias adversary; for
// t = Θ(n) this is Θ(√(n/ln n)). Includes ablation A2 (deterministic-stage
// hand-off removed).
#include "bench_util.hpp"

#include <cstdint>
#include <sstream>
#include <vector>

#include "obs/trace_binary.hpp"
#include "obs/trace_tape.hpp"
#include "obs/trace_writer.hpp"

namespace synran::bench {
namespace {

void table_for(const char* title, double t_fraction, bool fit_shape) {
  Table table(title);
  table.header({"n", "t", "reps", "rounds(mean)", "±stderr", "bound curve",
                "rounds/bound", "crashes(mean)"});
  std::vector<double> theory_pts, measured;

  SynRanFactory synran;
  bool within_bound = true;
  for (std::uint32_t n : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    const auto t = static_cast<std::uint32_t>(
        t_fraction >= 1.0 ? n - 1 : t_fraction * n);
    const auto stats = attack_run(synran, n, t, InputPattern::Half,
                                  reps_for(n), kSeed + n);
    const double th =
        theory::tight_round_bound(static_cast<double>(n),
                                  static_cast<double>(t));
    theory_pts.push_back(th);
    measured.push_back(stats.rounds_to_decision().mean());
    // Theorem 2's O(·) with an implied constant well above 1; 3 is a very
    // conservative consistency threshold for the upper-bound check.
    if (stats.rounds_to_decision().mean() > 3.0 * th) within_bound = false;
    table.row({static_cast<long long>(n), static_cast<long long>(t),
               static_cast<long long>(stats.reps()),
               stats.rounds_to_decision().mean(),
               stats.rounds_to_decision().stderr_mean(), th,
               stats.rounds_to_decision().mean() / th,
               stats.crashes_used().mean()});
    if (!stats.all_safe()) emit(table, false);
  }
  emit(table);

  if (fit_shape) {
    const auto fit = fit_scale(theory_pts, measured);
    std::cout << "  shape fit: rounds ≈ " << fit.scale
              << " · t/√(n·ln(2+t/√n)),  R² = " << fit.r2
              << ",  ratio spread = " << fit.ratio_spread() << "\n\n";
  } else {
    std::cout << "  upper-bound consistency (Theorem 2): measured mean stays "
              << (within_bound ? "within" : "OUTSIDE")
              << " 3x the bound curve at every n.\n"
                 "  (The executable adversary cannot afford the z ≈ p/2 "
                 "Z-split at t = n/2, so it\n  undershoots the curve here; "
                 "the lower-bound strategy of Theorem 1 is existence-only.\n"
                 "  See E1b and E5 for the regime where the constructive "
                 "adversary tracks the shape.)\n\n";
  }
}

/// One E1-sized batch's event stream (n = 256, t = n/2, the usual rep
/// budget), recorded once and shared by the E1d volume table and the
/// trace-write throughput benchmarks. Recorded directly through
/// run_repeated — not run_cell — so the trace comparison never claims a
/// checkpoint cell ordinal or opens a SYNRAN_TRACE_DIR file of its own.
const obs::TraceTape& trace_tape() {
  static const obs::TraceTape tape = [] {
    obs::TraceTape recorder;
    SynRanFactory synran;
    RepeatSpec spec;
    spec.n = 256;
    spec.pattern = InputPattern::Half;
    spec.reps = reps_for(256);
    spec.seed = kSeed + 13 * 256;
    spec.threads = 1;
    spec.engine.t_budget = 128;
    spec.engine.max_rounds = 200000;
    spec.engine.observer = &recorder;
    run_repeated(synran, coinbias_factory(), spec);
    return recorder;
  }();
  return tape;
}

/// Replays the shared event stream through both trace writers (in-memory
/// streams) and tabulates the persisted volume. Every cell is a pure
/// function of the seed, so the table is byte-stable across runs — the
/// wall-clock side of the comparison lives in the BM_TraceWrite* timings.
void table_trace_volume() {
  Table table("E1d: trace write volume, synran-trace/1 vs synran-trace/2");
  table.header({"format", "events", "bytes", "bytes/event", "size vs jsonl"});

  const auto& tape = trace_tape();
  std::ostringstream jsonl_out;
  obs::JsonlTraceWriter jsonl(jsonl_out);
  tape.replay(jsonl);
  jsonl.close();

  std::ostringstream bin_out;
  obs::BinaryTraceWriter bin(
      bin_out, obs::Trace2Header{static_cast<std::uint16_t>(kSeedSchemaVersion),
                                 BenchReport::git_rev()});
  tape.replay(bin);
  bin.close();

  for (const obs::TraceWriter* w :
       {static_cast<const obs::TraceWriter*>(&jsonl),
        static_cast<const obs::TraceWriter*>(&bin)}) {
    const double events = static_cast<double>(w->events_written());
    table.row({std::string(obs::to_string(w->format())),
               static_cast<long long>(w->events_written()),
               static_cast<long long>(w->bytes_written()),
               events > 0.0 ? static_cast<double>(w->bytes_written()) / events
                            : 0.0,
               static_cast<double>(w->bytes_written()) /
                   static_cast<double>(jsonl.bytes_written())});
  }
  emit(table);

  const double ratio = static_cast<double>(jsonl.bytes_written()) /
                       static_cast<double>(bin.bytes_written());
  std::cout << "  synran-trace/2 packs the same stream "
            << ratio << "x smaller than JSONL.\n\n";
}

void tables() {
  std::cout << "E1 — SynRan scaling vs the tight bound "
               "(Theorems 2 & 3)\n\n";
  table_for("E1a: t = n/2, coin-bias adversary (upper-bound check)", 0.5,
            false);
  table_for("E1b: t = n-1 (maximal resilience, shape check)", 1.0, true);

  // Ablation A2: without the deterministic stage the shape must persist
  // (the hand-off only matters once survivors drop below √(n/ln n)).
  Table table("E1c (ablation A2): no deterministic hand-off, t = n/2");
  table.header({"n", "rounds(mean)", "with-handoff", "delta"});
  SynRanOptions nodet;
  nodet.det_handoff = false;
  SynRanFactory plain, ablated(nodet);
  for (std::uint32_t n : {128u, 512u, 2048u}) {
    const auto a = attack_run(ablated, n, n / 2, InputPattern::Half,
                              reps_for(n), kSeed + 7 * n);
    const auto b = attack_run(plain, n, n / 2, InputPattern::Half,
                              reps_for(n), kSeed + 7 * n);
    table.row({static_cast<long long>(n), a.rounds_to_decision().mean(),
               b.rounds_to_decision().mean(),
               a.rounds_to_decision().mean() - b.rounds_to_decision().mean()});
  }
  emit(table);

  table_trace_volume();
}

void BM_SynRanAttackedRun(::benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  SynRanFactory factory;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    CoinBiasAdversary adv({0.55, true, seed});
    EngineOptions opts;
    opts.t_budget = n / 2;
    opts.seed = ++seed;
    opts.max_rounds = 200000;
    Xoshiro256 rng(seed);
    auto inputs = make_inputs(n, InputPattern::Half, rng);
    const auto res = run_once(factory, inputs, adv, opts);
    ::benchmark::DoNotOptimize(res.rounds_to_decision);
  }
}
BENCHMARK(BM_SynRanAttackedRun)->Arg(256)->Arg(1024)->Arg(4096);

/// Write-throughput twins over the shared pre-recorded event stream: the
/// replay isolates pure serialization cost (no engine work inside the
/// timed region), so these two timings are directly comparable.
void BM_TraceWriteJsonl(::benchmark::State& state) {
  const auto& tape = trace_tape();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    obs::JsonlTraceWriter writer(out);
    tape.replay(writer);
    writer.close();
    bytes = writer.bytes_written();
    ::benchmark::DoNotOptimize(bytes);
  }
  state.counters["trace_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_TraceWriteJsonl);

void BM_TraceWriteBinary(::benchmark::State& state) {
  const auto& tape = trace_tape();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    obs::BinaryTraceWriter writer(out);
    tape.replay(writer);
    writer.close();
    bytes = writer.bytes_written();
    ::benchmark::DoNotOptimize(bytes);
  }
  state.counters["trace_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_TraceWriteBinary);

}  // namespace
}  // namespace synran::bench

SYNRAN_BENCH_MAIN(synran::bench::tables)
