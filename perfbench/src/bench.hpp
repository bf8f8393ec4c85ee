// Shared vocabulary of the perfbench workloads: the clock, order
// statistics, the in-memory span log, and the result a workload hands back
// to main() for printing.
//
// Every number here is measured from outside the program under test: the
// workloads call the repository's public entry points and wrap the
// interfaces it exposes (ProcessFactory, AdversaryFactory, EngineObserver),
// so no file of the program changes to be measured.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "exec/batch.hpp"
#include "obs/json.hpp"
#include "sim/process.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by `clock` (CLOCK_PROCESS_CPUTIME_ID: every
/// thread of this process; CLOCK_THREAD_CPUTIME_ID: the calling thread).
/// Unlike wall time it does not advance while the host runs something else
/// on the core, including time a hypervisor steals from the VM.
inline std::int64_t cpu_ns(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

/// Thread CPU time of one pass of a fixed host-probe kernel: integer
/// arithmetic and random read-modify-writes in a 512 KiB table (the cache
/// levels the workloads run in). The kernel belongs to the benchmark, not
/// to the program, so only the host's speed moves it.
double host_probe_cpu_ns();

/// The host probe's CPU time on the reference host (the 4-core VM that
/// README.md describes). Bounded CPU times are scaled to that host.
constexpr double kHostProbeReferenceNs = 6.0e6;

/// `raw` scaled to the reference host: raw × reference ÷ the median of the
/// host-probe samples taken during the same run. A host that runs every
/// core slower (a neighbour on the same physical core, a lower clock)
/// slows the probe too; the scaling takes out the slowdown the two share.
double at_reference_speed(double raw, const std::vector<double>& probes);

/// Nearest-rank quantile (q in [0,1]) of `values`; sorts a copy.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// Peak resident set size so far (VmHWM), in MiB, of the process whose
/// /proc status file is `status`; 0 when it cannot be read.
double peak_rss_mib(const std::string& status = "/proc/self/status");

/// One traced interval. `parent` indexes the span that caused it (-1 for
/// roots); `id` is the rep index (engine) or request index (serve).
struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t id = -1;
};

/// Spans kept in memory while a traced run executes and written out once
/// it ends, one tab-separated line each: log label, parent, id, name,
/// start, end.
class SpanLog {
 public:
  std::int64_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int64_t parent = -1, std::int64_t id = -1) {
    spans_.push_back(Span{name, start, end, parent, id});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Sets the end of a span added before its children were known.
  void close(std::int64_t span, std::int64_t end) {
    spans_[static_cast<std::size_t>(span)].end_ns = end;
  }
  std::size_t size() const { return spans_.size(); }
  void write(std::ostream& out, const std::string& label) const;

 private:
  std::vector<Span> spans_;
};

/// One metric as printed: its value, unit, and how many samples it rests
/// on (1 for totals and counts).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What a workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< one line per failed check
  std::map<std::string, Metric> end_to_end;  ///< untraced run
  std::map<std::string, Metric> per_layer;   ///< traced run (--trace 1)
  std::map<std::string, std::string> absent;  ///< per-layer name → reason
  /// Traced minus untraced end-to-end figures (--trace 1).
  std::map<std::string, Metric> overhead;
  std::vector<std::string> notes;

  void fail(std::uint64_t ops, std::string why) {
    failed += ops;
    if (failed > attempted) failed = attempted;
    check_failures.push_back(std::move(why));
  }
};

/// Run parameters shared by all workloads.
struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< smoke-test sizes
  std::string inject;         ///< deliberate check failure (self-test)
  std::string synran;         ///< path of the synran CLI binary
  std::string work;           ///< scratch directory owned by this run
};

/// Per-layer totals of one or more traced batches (engine.cpp).
struct LayerTotals {
  std::int64_t wall_ns = 0;  ///< Σ BatchExecutor::run wall
  std::uint64_t batches = 0;
  std::uint64_t reps = 0;
  bool parallel = false;     ///< some batch ran on more than one worker
  bool traced_file = false;  ///< some batch wrote a synran-trace/2 file
  std::int64_t make_ns = 0;
  std::uint64_t make_calls = 0;
  std::int64_t factory_ns = 0;
  std::int64_t plan_ns = 0;
  std::uint64_t plan_calls = 0;
  std::uint64_t victims = 0;
  std::uint64_t distinct_masks = 0;
  std::uint64_t partial_receipts = 0;
  std::int64_t capture_ns = 0;   ///< the adversary wrapper's own copying
  std::int64_t deliver_ns = 0;   ///< net replay
  std::uint64_t links = 0;
  std::int64_t phase_a_ns = 0;
  std::int64_t plan_audit_ns = 0;
  std::int64_t phase_b_ns = 0;
  std::int64_t commit_ns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t process_rounds = 0;
  std::int64_t callback_ns = 0;  ///< the timing observer's own time
  std::int64_t write_ns = 0;     ///< inside the wrapped trace writer
  std::uint64_t trace_events = 0;
  std::uint64_t trace_bytes = 0;
  std::int64_t busy_ns = 0;      ///< Σ worker busy time
  std::int64_t capacity_ns = 0;  ///< Σ threads × (last activity − start)
  std::int64_t tail_ns = 0;
  std::int64_t replay_ns = 0;    ///< parallel batches only
  std::vector<std::int64_t> worker_busy_ns;  ///< per worker thread
};

struct TracedBatch {
  synran::RepeatedRunStats stats;
  std::string trace_digest;  ///< of the trace file, when one was written
  std::uint64_t links = 0;   ///< deliveries of this batch's net replay
};

/// Runs `spec` once through BatchExecutor::run with the tracing wrappers
/// installed (and a synran-trace/2 file at `trace_path` unless it is
/// empty), adds its layer figures to `totals` and writes its spans to
/// `spans`, each line labelled `label`.<thread>.
TracedBatch traced_batch(const synran::ProcessFactory& protocol,
                         const synran::AdversaryFactory& adversaries,
                         const synran::RepeatSpec& spec,
                         const std::string& trace_path, LayerTotals& totals,
                         std::ostream& spans, const std::string& label);

/// Puts the per-layer metrics of `totals` into `out`. Serial totals give
/// the sim phases and the wall-time decomposition (a note titled `what`);
/// `rest` adds every other engine-layer metric.
void put_layers(const LayerTotals& totals, bool rest, const char* what,
                Outcome& out);

/// Records the serve-layer metrics as absent: the workload runs no serve
/// code, so each is 0.
void mark_serve_not_run(Outcome& out);

/// e1b_wide, e1b_mid and small_reps_par.
Outcome run_engine(const Params& p);
Outcome run_serve_mixed(const Params& p);

}  // namespace perfbench
