#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[idx];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double host_probe_cpu_ns() {
  constexpr std::size_t kSlots = 1u << 16;  // 512 KiB of uint64_t
  static std::vector<std::uint64_t> table(kSlots, 1);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  const std::int64_t t0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & (kSlots - 1)];
    slot += x;
    acc += slot;
  }
  const std::int64_t t1 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  // Keep the loop: its result feeds the table the next pass reads.
  table[0] += acc;
  return static_cast<double>(t1 - t0);
}

double at_reference_speed(double raw, const std::vector<double>& probes) {
  const double probe = median(probes);
  return probe > 0.0 ? raw * kHostProbeReferenceNs / probe : raw;
}

double peak_rss_mib(const std::string& status) {
  std::ifstream in(status);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void SpanLog::write(std::ostream& out, const std::string& label) const {
  for (const Span& s : spans_) {
    out << label << '\t' << s.parent << '\t' << s.id << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

}  // namespace perfbench
