// perfbench: the repository benchmark's measuring binary.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --synran PATH --work DIR [--tiny] [--inject CHECK]
//
// `run` prints a human-readable report, then one JSON line with the
// outcome: {"correct", "attempted", "failed", "end_to_end", "per_layer",
// "absent", "overhead", "check_failures", "notes"}. perfbench/run.py
// builds this binary, calls it, and turns that line into the benchmark's
// result. Exit code 0 when every output check passed, 1 when one failed,
// 2 on a usage error or a build that must not report timings.
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/json.hpp"

namespace {

using synran::obs::JsonValue;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --synran PATH --work DIR [--tiny] "
               "[--inject CHECK]\n";
  return 2;
}

JsonValue metrics_json(const std::map<std::string, perfbench::Metric>& m) {
  JsonValue o = JsonValue::object();
  for (const auto& [name, metric] : m) {
    JsonValue v = JsonValue::object();
    v.set("value", metric.value);
    v.set("unit", metric.unit);
    v.set("samples", static_cast<std::uint64_t>(metric.samples));
    o.set(name, std::move(v));
  }
  return o;
}

void print_table(const char* title,
                 const std::map<std::string, perfbench::Metric>& m) {
  if (m.empty()) return;
  std::cout << title << "\n";
  for (const auto& [name, metric] : m) {
    std::cout << "  " << std::left << std::setw(28) << name << std::right
              << std::setw(18) << std::setprecision(6) << metric.value << " "
              << std::left << std::setw(7) << metric.unit
              << " samples=" << metric.samples << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::cerr << "perfbench: refusing to report timings from an unoptimised "
               "or sanitizer build\n";
  return 2;
#endif
  if (argc < 2 || std::string(argv[1]) != "run") return usage("missing 'run'");

  perfbench::Params p;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      p.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        p.workload = value;
      } else if (flag == "--seed") {
        p.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        p.seconds = std::stod(value);
      } else if (flag == "--trace") {
        p.trace = value == "1";
      } else if (flag == "--synran") {
        p.synran = value;
      } else if (flag == "--work") {
        p.work = value;
      } else if (flag == "--inject") {
        p.inject = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("invalid value for " + flag);
    }
  }
  if (p.work.empty()) return usage("--work is required");
  if (p.seconds <= 0) return usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::remove_all(p.work, ec);
  std::filesystem::create_directories(p.work, ec);
  if (ec) return usage("cannot create " + p.work);

  if (p.workload == "serve_mixed" && p.synran.empty()) {
    return usage("serve_mixed needs --synran");
  }
  perfbench::Outcome out;
  std::string aborted;
  // The workload runs on a thread of its own, whose stack and malloc arena
  // lie at the same offsets within their pages in every process; the main
  // thread's stack start is randomised per process. Measured on the main
  // thread, identical runs of e1b_mid differed by up to 1.7x in
  // ns_per_process_round and fell into two modes 2x apart in setup_s;
  // on this thread (or with address randomisation off) they did not.
  std::thread runner([&] {
    try {
      out = p.workload == "serve_mixed"
                ? perfbench::run_serve_mixed(p)
                : perfbench::run_engine(p);  // throws on an unknown workload
    } catch (const std::exception& e) {
      aborted = e.what();
    }
  });
  runner.join();
  if (!aborted.empty()) {
    std::cerr << "perfbench: " << p.workload << " aborted: " << aborted
              << "\n";
    return 1;
  }

  const bool correct = out.check_failures.empty() && out.failed == 0 &&
                       out.attempted > 0;
  std::cout << "workload " << p.workload << " seed " << p.seed
            << (p.tiny ? " (tiny)" : "") << "\n";
  for (const auto& note : out.notes) std::cout << "  note: " << note << "\n";
  print_table("end-to-end (untraced):", out.end_to_end);
  print_table("per-layer (traced):", out.per_layer);
  for (const auto& [name, why] : out.absent) {
    std::cout << "  absent (reported as 0) " << name << ": " << why << "\n";
  }
  print_table("tracing overhead (traced minus untraced):", out.overhead);
  std::cout << "ops_attempted " << out.attempted << "  ops_failed "
            << out.failed << "\n";
  for (const auto& f : out.check_failures) {
    std::cout << "  CHECK FAILED: " << f << "\n";
  }

  JsonValue result = JsonValue::object();
  result.set("correct", correct);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("end_to_end", metrics_json(out.end_to_end));
  result.set("per_layer", metrics_json(out.per_layer));
  JsonValue absent = JsonValue::object();
  for (const auto& [name, why] : out.absent) absent.set(name, why);
  result.set("absent", std::move(absent));
  result.set("overhead", metrics_json(out.overhead));
  JsonValue failures = JsonValue::array();
  for (const auto& f : out.check_failures) failures.push(f);
  result.set("check_failures", std::move(failures));
  JsonValue notes = JsonValue::array();
  for (const auto& n : out.notes) notes.push(n);
  result.set("notes", std::move(notes));
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}
