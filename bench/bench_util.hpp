// Shared plumbing for the experiment binaries.
//
// Every bench binary regenerates one experiment's table (EXPERIMENTS.md):
// it prints the paper-shaped rows first (deterministic, seeded), then hands
// over to google-benchmark for wall-clock timings of the underlying kernels.
// Besides the human tables, each binary writes a machine-readable
// BENCH_<experiment>.json report (schema "synran-bench/1": seed, git rev,
// n/t grid, every emitted table, google-benchmark timings) so the repo
// accumulates a perf trajectory; see EXPERIMENTS.md for the schema.
//
// Environment hooks:
//   SYNRAN_CSV_DIR     also write every emitted table as CSV into this dir
//   SYNRAN_TRACE_DIR   write a run trace per attack_run batch here (works at
//                      any thread count; parallel batches replay buffered
//                      events in rep order, so traces are byte-identical to
//                      a serial run). When tracing, the report gains an
//                      additive "trace_overhead" block: files, events,
//                      bytes, and the wall-time share spent inside the
//                      writer.
//   SYNRAN_TRACE_FORMAT "jsonl" (synran-trace/1, default) or "bin"
//                      (synran-trace/2, varint-packed binary);
//                      --trace-format=F on the command line wins
//   SYNRAN_BENCH_DIR   where BENCH_<experiment>.json lands (default ".")
//   SYNRAN_REPS_BUDGET override the rep budget, dropping the usual floor
//                      and ceiling (CI: tiny for smoke runs, huge to hold a
//                      sweep open for the interruption test)
//   SYNRAN_THREADS     worker threads for every repeated-run batch
//                      (--threads=N on the command line wins). Per-cell
//                      statistics are bit-identical at any thread count; the
//                      resolved count is recorded as "threads" in the report.
//   SYNRAN_CKPT_DIR    write a per-cell checkpoint ledger
//                      (CKPT_<experiment>.jsonl, schema synran-ckpt/1) here
//                      as each grid cell completes
//   SYNRAN_RESUME      "1": reload completed cells from the ledger instead
//                      of recomputing them. Seed schema 2 makes every cell
//                      independent of execution order and the ledger stores
//                      exact accumulator state, so a resumed run's
//                      BENCH_*.json is byte-identical to an uninterrupted
//                      one (timings aside).
//   SYNRAN_FAIL_POLICY "quarantine" | "fail_fast": what a repeated-run
//                      batch does with a rep that still throws after its
//                      retries (default fail_fast — abort the sweep)
//   SYNRAN_REP_RETRIES re-attempts per failing rep, identical seeds
//                      (default 0)
//
// SIGINT/SIGTERM are routed to the cooperative stop flag (exec/stopper.hpp):
// the executor finishes in-flight reps, completed cells stay in the ledger,
// and the binary writes its report with "partial":true and exits with the
// distinct code 3.
#pragma once

#include <benchmark/benchmark.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adversary/coinbias.hpp"
#include "analysis/fit.hpp"
#include "common/check.hpp"
#include "analysis/stats.hpp"
#include "analysis/theory.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "exec/stopper.hpp"
#include "obs/atomic_file.hpp"
#include "obs/checkpoint.hpp"
#include "obs/json.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_writer.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"

namespace synran::bench {

/// Master seed shared by every experiment table so the whole suite is
/// reproducible as a unit.
inline constexpr std::uint64_t kSeed = 0x5ee01dULL;

inline constexpr const char* kBenchSchema = "synran-bench/1";

/// Standard rep count, scaled down for large systems so tables regenerate in
/// seconds on a laptop (the paper's curves are about shape, not ±1%).
/// SYNRAN_REPS_BUDGET overrides the budget and drops both the 30-rep floor
/// and the 400-rep ceiling: CI smoke runs shrink the sweep to seconds, and
/// the interruption test inflates it far past any SIGINT latency.
inline std::size_t reps_for(std::uint32_t n, std::size_t budget = 40000) {
  std::size_t floor = 30;
  std::size_t ceiling = 400;
  if (const char* env = std::getenv("SYNRAN_REPS_BUDGET");
      env != nullptr && *env != '\0') {
    budget = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    floor = 1;
    ceiling = budget;
  }
  const std::size_t r = budget / std::max<std::uint32_t>(1, n);
  return std::max<std::size_t>(floor, std::min<std::size_t>(ceiling, r));
}

/// The worker-thread count every repeated-run batch in this binary uses:
/// --threads=N (recorded by run_main) when given, else SYNRAN_THREADS, else
/// serial. Resolved once so the tables and the report agree.
inline unsigned& bench_threads_setting() {
  static unsigned threads = 0;  // 0 = defer to the environment
  return threads;
}

inline unsigned bench_threads() {
  return exec::resolve_threads(bench_threads_setting());
}

/// The trace format every batch trace in this binary uses: --trace-format=F
/// (recorded by run_main) when given, else SYNRAN_TRACE_FORMAT, else JSONL.
/// Only consulted when SYNRAN_TRACE_DIR enables tracing at all.
inline std::optional<obs::TraceFormat>& bench_trace_format_setting() {
  static std::optional<obs::TraceFormat> format;  // unset = defer to the env
  return format;
}

inline obs::TraceFormat bench_trace_format() {
  if (bench_trace_format_setting().has_value())
    return *bench_trace_format_setting();
  if (const char* env = std::getenv("SYNRAN_TRACE_FORMAT");
      env != nullptr && *env != '\0') {
    const auto format = obs::parse_trace_format(env);
    SYNRAN_REQUIRE(format.has_value(),
                   "SYNRAN_TRACE_FORMAT must be 'jsonl' or 'bin'");
    return *format;
  }
  return obs::TraceFormat::Jsonl;
}

// ---------------------------------------------------------------- reporting

/// Lower-cases a table title into a file-name slug ("E1a: t = n/2" ->
/// "e1a-t-n-2").
inline std::string csv_slug(const std::string& title) {
  std::string name;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      name += static_cast<char>(std::tolower(c));
    else if (!name.empty() && name.back() != '-')
      name += '-';
  }
  while (!name.empty() && name.back() == '-') name.pop_back();
  if (name.empty()) name = "table";
  return name;
}

/// Hands out collision-free CSV base names within one process: two tables
/// whose titles slug identically get "slug" and "slug-2" instead of silently
/// overwriting each other in SYNRAN_CSV_DIR.
class CsvNameRegistry {
 public:
  static CsvNameRegistry& instance() {
    static CsvNameRegistry r;
    return r;
  }

  std::string unique(const std::string& slug) {
    const int k = ++used_[slug];
    if (k == 1) return slug;
    return slug + "-" + std::to_string(k);
  }

  void reset() { used_.clear(); }

 private:
  std::map<std::string, int> used_;
};

/// Accumulates one binary's machine-readable report and writes it as
/// BENCH_<experiment>.json. Everything except "timings" is derived from the
/// seeded tables, so those fields are byte-identical across runs with the
/// same seed; "timings" carries google-benchmark's wall-clock measurements.
class BenchReport {
 public:
  static BenchReport& instance() {
    static BenchReport r;
    return r;
  }

  void set_experiment(std::string name) { experiment_ = std::move(name); }
  const std::string& experiment() const { return experiment_; }

  /// Records an (n, t) grid point once, in first-seen order.
  void note_grid(std::uint32_t n, std::uint32_t t) {
    for (const auto& [gn, gt] : grid_)
      if (gn == n && gt == t) return;
    grid_.emplace_back(n, t);
  }

  /// Records an omission configuration (drop rate, directive budget) once.
  /// Reports that never call this keep the exact pre-omission JSON shape;
  /// otherwise an additive top-level "omissions" array rides along.
  void note_omission(double drop_rate, std::uint32_t budget) {
    for (const auto& [r, b] : omissions_)
      if (r == drop_rate && b == budget) return;
    omissions_.emplace_back(drop_rate, budget);
  }

  /// Records a corrupted-value configuration (corruption rate, byzantine
  /// directive budget) once. Additive like "omissions": reports that never
  /// call this keep their exact prior JSON shape.
  void note_corruption(double corrupt_rate, std::uint32_t budget) {
    for (const auto& [r, b] : corruptions_)
      if (r == corrupt_rate && b == budget) return;
    corruptions_.emplace_back(corrupt_rate, budget);
  }

  void add_table(const Table& table) {
    obs::JsonValue columns = obs::JsonValue::array();
    for (const auto& col : table.header()) columns.push(obs::JsonValue(col));
    obs::JsonValue rows = obs::JsonValue::array();
    for (const auto& row : table.rows()) {
      obs::JsonValue cells = obs::JsonValue::array();
      for (const auto& cell : row) {
        if (const auto* s = std::get_if<std::string>(&cell))
          cells.push(obs::JsonValue(*s));
        else if (const auto* i = std::get_if<long long>(&cell))
          cells.push(obs::JsonValue(static_cast<std::int64_t>(*i)));
        else
          cells.push(obs::JsonValue(std::get<double>(cell)));
      }
      rows.push(std::move(cells));
    }
    tables_.push(obs::JsonValue::object()
                     .set("title", obs::JsonValue(table.title()))
                     .set("columns", std::move(columns))
                     .set("rows", std::move(rows)));
  }

  void set_timings(obs::JsonValue timings) { timings_ = std::move(timings); }

  /// Marks the report as the salvage of an interrupted sweep: the additive
  /// top-level "partial":true rides along, telling consumers that tables
  /// for cells past the interruption point are absent (completed cells are
  /// exact — they were checkpointed before the stop was honored).
  void mark_partial() { partial_ = true; }
  bool partial() const { return partial_; }

  /// Records one quarantined repetition (additive top-level "failures"
  /// array, present only when something was quarantined). `cell` is the
  /// sweep-order cell ordinal, matching the checkpoint ledger.
  void note_failure(std::uint64_t cell, const RepFailure& failure) {
    failures_.emplace_back(cell, failure);
  }

  /// Accumulates one traced batch's write-overhead sample (additive
  /// top-level "trace_overhead" block, present only when SYNRAN_TRACE_DIR
  /// enabled tracing). `write_seconds` is the wall-time spent inside the
  /// trace writer's callbacks (measured by obs::TraceWriteTimer);
  /// `batch_seconds` is the whole batch including that time, so the block
  /// can report the write share. Wall-clock fields make the block
  /// non-deterministic — canonical report comparisons must strip it, like
  /// "timings".
  void note_trace_overhead(std::uint64_t events, std::uint64_t bytes,
                           double write_seconds, double batch_seconds) {
    ++trace_files_;
    trace_events_ += events;
    trace_bytes_ += bytes;
    trace_write_seconds_ += write_seconds;
    trace_batch_seconds_ += batch_seconds;
  }

  obs::JsonValue to_json() const {
    obs::JsonValue grid = obs::JsonValue::array();
    for (const auto& [n, t] : grid_)
      grid.push(obs::JsonValue::object()
                    .set("n", obs::JsonValue(n))
                    .set("t", obs::JsonValue(t)));
    obs::JsonValue report =
        obs::JsonValue::object()
            .set("schema", obs::JsonValue(kBenchSchema))
            .set("experiment", obs::JsonValue(experiment_))
            .set("seed", obs::JsonValue(kSeed))
            .set("git_rev", obs::JsonValue(git_rev()))
            // Additive since schema synran-bench/1 first shipped: the worker
            // threads the seeded tables ran with. Statistics are thread-count
            // invariant; this records how fast the run was allowed to be.
            .set("threads",
                 obs::JsonValue(static_cast<std::int64_t>(bench_threads())))
            .set("grid", std::move(grid));
    if (!omissions_.empty()) {
      // Additive, like "threads": present only for omission experiments.
      obs::JsonValue oms = obs::JsonValue::array();
      for (const auto& [rate, budget] : omissions_)
        oms.push(obs::JsonValue::object()
                     .set("drop_rate", obs::JsonValue(rate))
                     .set("budget", obs::JsonValue(budget)));
      report.set("omissions", std::move(oms));
    }
    if (!corruptions_.empty()) {
      // Additive, like "omissions": present only for corruption experiments.
      obs::JsonValue cors = obs::JsonValue::array();
      for (const auto& [rate, budget] : corruptions_)
        cors.push(obs::JsonValue::object()
                      .set("corrupt_rate", obs::JsonValue(rate))
                      .set("budget", obs::JsonValue(budget)));
      report.set("corruptions", std::move(cors));
    }
    if (partial_) report.set("partial", obs::JsonValue(true));
    if (trace_files_ > 0) {
      // Additive, like "omissions": present only when batches were traced.
      report.set(
          "trace_overhead",
          obs::JsonValue::object()
              .set("format",
                   obs::JsonValue(std::string(
                       obs::to_string(bench_trace_format()))))
              .set("files", obs::JsonValue(trace_files_))
              .set("events", obs::JsonValue(trace_events_))
              .set("bytes", obs::JsonValue(trace_bytes_))
              .set("write_seconds", obs::JsonValue(trace_write_seconds_))
              .set("batch_seconds", obs::JsonValue(trace_batch_seconds_))
              .set("write_share",
                   obs::JsonValue(trace_batch_seconds_ > 0.0
                                      ? trace_write_seconds_ /
                                            trace_batch_seconds_
                                      : 0.0)));
    }
    if (!failures_.empty()) {
      obs::JsonValue fails = obs::JsonValue::array();
      for (const auto& [cell, f] : failures_) {
        obs::JsonValue entry = obs::JsonValue::object();
        entry.set("cell", obs::JsonValue(cell));
        const obs::JsonValue fields = f.to_json();
        for (const auto& [key, value] : fields.as_object())
          entry.set(key, value);
        fails.push(std::move(entry));
      }
      report.set("failures", std::move(fails));
    }
    return report.set("tables", tables_).set("timings", timings_);
  }

  /// Writes BENCH_<experiment>.json into `dir` via a temp file + fsync +
  /// atomic rename (obs::commit_atomic), so neither a crash, a full disk,
  /// nor a power loss right after the rename leaves a truncated or empty
  /// report under the final name. Returns the path, or "" on any failure
  /// (open, write, close, fsync, or rename — checked at each step).
  std::string write(const std::string& dir) const {
    const std::string path = dir + "/BENCH_" + experiment_ + ".json";
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return {};
      out << to_json().dump() << "\n";
      out.flush();
      if (!out.good()) {
        out.close();
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return {};
      }
    }
    try {
      obs::commit_atomic(tmp, path, "bench report");
    } catch (const obs::IoError&) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return {};
    }
    return path;
  }

  void reset() {
    experiment_ = "experiment";
    grid_.clear();
    omissions_.clear();
    corruptions_.clear();
    partial_ = false;
    failures_.clear();
    trace_files_ = 0;
    trace_events_ = 0;
    trace_bytes_ = 0;
    trace_write_seconds_ = 0.0;
    trace_batch_seconds_ = 0.0;
    tables_ = obs::JsonValue::array();
    timings_ = obs::JsonValue::array();
  }

  static std::string git_rev() {
#ifdef SYNRAN_GIT_REV
    return SYNRAN_GIT_REV;
#else
    return "unknown";
#endif
  }

 private:
  std::string experiment_ = "experiment";
  std::vector<std::pair<std::uint32_t, std::uint32_t>> grid_;
  std::vector<std::pair<double, std::uint32_t>> omissions_;
  std::vector<std::pair<double, std::uint32_t>> corruptions_;
  bool partial_ = false;
  std::vector<std::pair<std::uint64_t, RepFailure>> failures_;
  std::uint64_t trace_files_ = 0;
  std::uint64_t trace_events_ = 0;
  std::uint64_t trace_bytes_ = 0;
  double trace_write_seconds_ = 0.0;
  double trace_batch_seconds_ = 0.0;
  obs::JsonValue tables_ = obs::JsonValue::array();
  obs::JsonValue timings_ = obs::JsonValue::array();
};

/// "path/to/bench_e1_synran_scaling" -> "e1_synran_scaling".
inline std::string experiment_name_from(const char* argv0) {
  std::string name = std::filesystem::path(argv0).filename().string();
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  if (name.empty()) name = "experiment";
  return name;
}

// ----------------------------------------------------------------- tracing

/// Holds an open trace writer (format per bench_trace_format) for one batch
/// of runs; empty (observer() == nullptr) when SYNRAN_TRACE_DIR is unset.
/// The engine observes through a TraceWriteTimer so the batch's trace-write
/// wall-time is known afterwards. The writer owns its file and streams into
/// "<path>.tmp"; close() atomically renames onto the final name and throws
/// obs::IoError on any stream failure, so a batch never leaves a truncated
/// trace behind under the final name.
struct ScopedTrace {
  std::unique_ptr<obs::TraceWriter> writer;
  std::unique_ptr<obs::TraceWriteTimer> timer;

  obs::EngineObserver* observer() { return timer.get(); }
  bool active() const { return timer != nullptr; }
  void close() {
    if (timer != nullptr) timer->close();
  }
};

/// Opens "<SYNRAN_TRACE_DIR>/<experiment>-<seq>-<tag>.<format>"; the
/// sequence number keeps same-tag batches within one binary apart. Binary
/// traces stamp the bench build's seed schema and git rev into the header.
inline ScopedTrace open_trace(const std::string& tag) {
  ScopedTrace t;
  const char* dir = std::getenv("SYNRAN_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return t;
  static int seq = 0;
  const obs::TraceFormat format = bench_trace_format();
  const std::string path = std::string(dir) + "/" +
                           BenchReport::instance().experiment() + "-" +
                           std::to_string(++seq) + "-" + tag + "." +
                           obs::to_string(format);
  try {
    t.writer = obs::make_trace_writer(
        format, path,
        obs::Trace2Header{static_cast<std::uint16_t>(kSeedSchemaVersion),
                          BenchReport::git_rev()});
    t.timer = std::make_unique<obs::TraceWriteTimer>(*t.writer);
  } catch (const obs::IoError& e) {
    std::cout << "  [" << e.what() << "]\n";
  }
  return t;
}

// ------------------------------------------------------------ checkpoints

/// Reads a failure policy from SYNRAN_FAIL_POLICY ("quarantine" or
/// "fail_fast"); anything else is rejected loudly (a typo must not silently
/// run a 2-hour sweep under the wrong policy). Falls back to `fallback`
/// when unset.
inline FailurePolicy bench_fail_policy(
    FailurePolicy fallback = FailurePolicy::FailFast) {
  const char* env = std::getenv("SYNRAN_FAIL_POLICY");
  if (env == nullptr || *env == '\0') return fallback;
  const std::string_view value = env;
  if (value == "quarantine") return FailurePolicy::Quarantine;
  if (value == "fail_fast") return FailurePolicy::FailFast;
  SYNRAN_REQUIRE(false, "SYNRAN_FAIL_POLICY must be 'fail_fast' or "
                        "'quarantine'");
  return fallback;
}

/// Per-rep retry budget from SYNRAN_REP_RETRIES (default `fallback`).
inline std::uint32_t bench_rep_retries(std::uint32_t fallback = 0) {
  const char* env = std::getenv("SYNRAN_REP_RETRIES");
  if (env == nullptr || *env == '\0') return fallback;
  return static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
}

/// Process-wide checkpoint plumbing for the bench harness: binds the ledger
/// (CKPT_<experiment>.jsonl under SYNRAN_CKPT_DIR) lazily on first use —
/// after run_main has set the experiment name — and hands out the sweep's
/// cell ordinals in execution order.
class CheckpointState {
 public:
  static CheckpointState& instance() {
    static CheckpointState s;
    return s;
  }

  /// Next cell ordinal; every cell of the sweep claims one, whether it is
  /// computed or restored, so ordinals always mirror execution order.
  std::uint64_t next_cell() {
    ensure_init();
    return next_cell_++;
  }

  /// SYNRAN_RESUME is set and not "0".
  bool resuming() {
    ensure_init();
    return resume_;
  }

  /// The bound ledger, or nullptr when SYNRAN_CKPT_DIR is unset.
  obs::CheckpointLedger* ledger() {
    ensure_init();
    return ledger_.enabled() ? &ledger_ : nullptr;
  }

  /// Drops the binding and the ordinal counter; the environment is re-read
  /// on next use (tests).
  void reset() {
    init_ = false;
    resume_ = false;
    next_cell_ = 0;
    ledger_ = obs::CheckpointLedger();
  }

 private:
  void ensure_init() {
    if (init_) return;
    init_ = true;
    if (const char* env = std::getenv("SYNRAN_RESUME");
        env != nullptr && *env != '\0' && std::string_view(env) != "0") {
      resume_ = true;
    }
    if (const char* dir = std::getenv("SYNRAN_CKPT_DIR");
        dir != nullptr && *dir != '\0') {
      const std::string path = std::string(dir) + "/CKPT_" +
                               BenchReport::instance().experiment() + ".jsonl";
      ledger_ = obs::CheckpointLedger(path,
                                      BenchReport::instance().experiment(),
                                      kSeed);
    }
  }

  bool init_ = false;
  bool resume_ = false;
  std::uint64_t next_cell_ = 0;
  obs::CheckpointLedger ledger_;
};

/// Runs one grid cell — a repeated batch — through the resilience plumbing:
/// SYNRAN_FAIL_POLICY / SYNRAN_REP_RETRIES overrides, per-batch trace in
/// the configured format (any thread count — the executor replays buffered
/// events in rep order, so the trace is byte-identical to a serial run),
/// checkpoint recording under SYNRAN_CKPT_DIR, and
/// reload-instead-of-recompute under SYNRAN_RESUME=1 when the recorded cell
/// key still matches. Quarantined reps land in the report's "failures"
/// array either way (fresh or restored), so a resumed report is
/// byte-identical to an uninterrupted one. Traced batches also feed the
/// report's "trace_overhead" block.
inline RepeatedRunStats run_cell(const ProcessFactory& factory,
                                 const AdversaryFactory& adversaries,
                                 RepeatSpec spec, const std::string& tag) {
  spec.policy = bench_fail_policy(spec.policy);
  spec.max_rep_retries = bench_rep_retries(spec.max_rep_retries);

  auto& ckpt = CheckpointState::instance();
  const std::uint64_t cell = ckpt.next_cell();
  const std::string key = spec_cell_key(spec, factory.name(), tag);

  auto report_failures = [cell](const RepeatedRunStats& stats) {
    for (const RepFailure& f : stats.failures()) {
      BenchReport::instance().note_failure(cell, f);
      std::cout << "  [quarantined: rep " << f.rep << " (engine seed "
                << f.seed << ", " << f.attempts << " attempts): " << f.error
                << "]\n";
    }
  };

  if (ckpt.resuming() && ckpt.ledger() != nullptr) {
    if (const obs::CheckpointCell* hit = ckpt.ledger()->find(cell, key)) {
      auto stats = RepeatedRunStats::from_checkpoint(hit->data);
      std::cout << "  [ckpt: cell " << cell << " restored]\n";
      report_failures(stats);
      return stats;
    }
  }

  ScopedTrace trace;
  if (spec.engine.observer == nullptr) {
    trace = open_trace(tag);
    spec.engine.observer = trace.observer();
  }
  const auto batch_start = std::chrono::steady_clock::now();
  auto stats = run_repeated(factory, adversaries, spec);
  trace.close();
  if (trace.active()) {
    const double batch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      batch_start)
            .count();
    BenchReport::instance().note_trace_overhead(
        trace.timer->events_written(), trace.timer->bytes_written(),
        trace.timer->write_seconds(), batch_seconds);
  }

  if (obs::CheckpointLedger* ledger = ckpt.ledger()) {
    try {
      ledger->record(
          obs::CheckpointCell{cell, key, stats.checkpoint_json()});
    } catch (const obs::IoError& e) {
      // A dead checkpoint dir must not kill a healthy sweep: the cell's
      // results are already in hand, only resumability is lost.
      std::cout << "  [" << e.what() << "]\n";
    }
  }
  report_failures(stats);
  return stats;
}

// ------------------------------------------------------------ experiments

/// The CoinBias adversary factory used across experiments.
inline AdversaryFactory coinbias_factory(bool stall = true) {
  return [stall](std::uint64_t seed) {
    return std::make_unique<CoinBiasAdversary>(
        CoinBiasOptions{0.55, stall, seed});
  };
}

/// Runs SynRan (or an ablation) under the CoinBias adversary and returns the
/// aggregate — the workhorse of E1/E2/E5/E8. Grid points land in the bench
/// report; the batch goes through run_cell, so it traces under
/// SYNRAN_TRACE_DIR (at any thread count, in the configured format),
/// checkpoints under SYNRAN_CKPT_DIR, and resumes under SYNRAN_RESUME=1.
inline RepeatedRunStats attack_run(const ProcessFactory& factory,
                                   std::uint32_t n, std::uint32_t t,
                                   InputPattern pattern, std::size_t reps,
                                   std::uint64_t seed, bool capped = false,
                                   bool stall = true) {
  BenchReport::instance().note_grid(n, t);
  RepeatSpec spec;
  spec.n = n;
  spec.pattern = pattern;
  spec.reps = reps;
  spec.seed = seed;
  spec.threads = bench_threads();
  spec.engine.t_budget = t;
  spec.engine.max_rounds = 200000;
  if (capped)
    spec.engine.per_round_cap = static_cast<std::uint32_t>(
        theory::per_round_budget(static_cast<double>(n)));
  const std::string tag = "n" + std::to_string(n) + "-t" + std::to_string(t) +
                          (stall ? "" : "-nostall");
  return run_cell(factory, coinbias_factory(stall), std::move(spec), tag);
}

/// Prints the table and a one-line safety verdict (every experiment demands
/// zero agreement/validity/termination failures), and adds the table to the
/// binary's BENCH_*.json report. When SYNRAN_CSV_DIR is set, the table is
/// also written there as CSV (collision-free name derived from the title)
/// for downstream plotting.
inline void emit(Table& table, bool all_safe = true) {
  table.print(std::cout);
  if (!all_safe)
    std::cout << "WARNING: safety violations occurred — see rows above\n";
  BenchReport::instance().add_table(table);
  if (const char* dir = std::getenv("SYNRAN_CSV_DIR");
      dir != nullptr && *dir != '\0') {
    const std::string name =
        CsvNameRegistry::instance().unique(csv_slug(table.title()));
    const std::string path = std::string(dir) + "/" + name + ".csv";
    const std::string tmp = path + ".tmp";
    // Temp file + fsync + atomic rename (obs::commit_atomic), with the
    // stream state checked before the commit: a full disk or power loss
    // yields a diagnostic and no file at the final name, never a silently
    // truncated or empty CSV.
    bool ok = false;
    {
      std::ofstream csv(tmp, std::ios::binary | std::ios::trunc);
      if (csv) {
        table.write_csv(csv);
        csv.flush();
        ok = csv.good();
      }
    }
    if (ok) {
      try {
        obs::commit_atomic(tmp, path, "bench csv");
      } catch (const obs::IoError&) {
        ok = false;
      }
    }
    if (ok) {
      std::cout << "  [csv: " << path << "]\n";
    } else {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      std::cout << "  [csv: cannot write " << path << "]\n";
    }
  }
  std::cout << std::endl;
}

// --------------------------------------------------------------- timings

/// Extracts the "benchmarks" array from google-benchmark's JSON output,
/// keeping the stable fields our schema documents.
inline obs::JsonValue extract_timings(const std::string& gbench_json) {
  obs::JsonValue timings = obs::JsonValue::array();
  const auto doc = obs::JsonValue::parse(gbench_json);
  if (!doc.has_value()) return timings;
  const auto* benches = doc->find("benchmarks");
  if (benches == nullptr || !benches->is_array()) return timings;
  for (const auto& b : benches->as_array()) {
    obs::JsonValue entry = obs::JsonValue::object();
    for (const char* key :
         {"name", "iterations", "real_time", "cpu_time", "time_unit"}) {
      if (const auto* v = b.find(key); v != nullptr) entry.set(key, *v);
    }
    timings.push(std::move(entry));
  }
  return timings;
}

/// Shared main: print the experiment table(s) via `tables`, run the
/// registered google-benchmark timings (captured as JSON through a side
/// file), then write BENCH_<experiment>.json. SIGINT/SIGTERM interrupt the
/// sweep gracefully: the report is still written — marked "partial":true,
/// with the completed tables — and the process exits with code 3 (completed
/// cells survive in the checkpoint ledger for SYNRAN_RESUME=1).
inline int run_main(int argc, char** argv, void (*tables)()) {
  exec::install_stop_handlers();
  BenchReport::instance().set_experiment(experiment_name_from(argv[0]));

  // Strip --threads=N and --trace-format=F before google-benchmark sees
  // argv (it rejects flags it does not know). Must happen before tables()
  // runs the seeded batches.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      bench_threads_setting() = static_cast<unsigned>(
          std::strtoul(argv[i] + std::strlen("--threads="), nullptr, 10));
    } else if (arg.rfind("--trace-format=", 0) == 0) {
      const auto format =
          obs::parse_trace_format(arg.substr(std::strlen("--trace-format=")));
      SYNRAN_REQUIRE(format.has_value(),
                     "--trace-format must be 'jsonl' or 'bin'");
      bench_trace_format_setting() = *format;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (bench_threads() > 1)
    std::cout << "[threads: " << bench_threads() << "]\n";

  bool interrupted = false;
  try {
    tables();
  } catch (const exec::Interrupted& e) {
    interrupted = true;
    BenchReport::instance().mark_partial();
    std::cout << "[interrupted: " << e.what() << "]\n";
  }

  const char* bench_dir_env = std::getenv("SYNRAN_BENCH_DIR");
  const std::string bench_dir =
      (bench_dir_env != nullptr && *bench_dir_env != '\0') ? bench_dir_env
                                                           : ".";

  if (!interrupted) {
    const std::string timings_path =
        bench_dir + "/." + BenchReport::instance().experiment() +
        ".timings.json";

    // Route google-benchmark's JSON through a side file (its file reporter
    // demands --benchmark_out); injected last so it wins over duplicates.
    std::vector<std::string> args_storage(argv, argv + argc);
    args_storage.push_back("--benchmark_out=" + timings_path);
    args_storage.push_back("--benchmark_out_format=json");
    std::vector<char*> args;
    args.reserve(args_storage.size());
    for (auto& a : args_storage) args.push_back(a.data());
    int args_count = static_cast<int>(args.size());

    ::benchmark::Initialize(&args_count, args.data());
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();

    std::ifstream in(timings_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    BenchReport::instance().set_timings(extract_timings(buf.str()));
    std::error_code ec;
    std::filesystem::remove(timings_path, ec);
  }

  const std::string report = BenchReport::instance().write(bench_dir);
  if (!report.empty())
    std::cout << "[bench report: " << report << "]\n";
  else
    std::cout << "[bench report: cannot write into " << bench_dir << "]\n";
  return interrupted ? 3 : 0;
}

}  // namespace synran::bench

#define SYNRAN_BENCH_MAIN(tables_fn)                       \
  int main(int argc, char** argv) {                        \
    return ::synran::bench::run_main(argc, argv, tables_fn); \
  }
