#include "runner/narrate.hpp"

#include <cstdint>
#include <iomanip>
#include <ostream>
#include <string>

namespace synran {

namespace {

using obs::RoundObservation;

std::string composition_bar(const RoundObservation& r, std::size_t width) {
  if (r.senders == 0) return std::string(width, '.');
  const auto ones = static_cast<std::size_t>(
      static_cast<double>(r.ones) / r.senders * static_cast<double>(width) +
      0.5);
  std::string bar(width, '0');
  for (std::size_t i = 0; i < ones && i < width; ++i) bar[i] = '1';
  return bar;
}

bool same_shape(const RoundObservation& a, const RoundObservation& b) {
  return a.alive == b.alive && a.halted == b.halted &&
         a.senders == b.senders && a.ones == b.ones && a.zeros == b.zeros &&
         a.deterministic == b.deterministic && a.crashes == b.crashes &&
         a.decided == b.decided;
}

void emit_line(std::ostream& os, const RoundObservation& r,
               std::size_t repeat, std::size_t width) {
  os << "r" << std::setw(4) << std::left << r.round << std::right << " ["
     << composition_bar(r, width) << "] " << std::setw(4) << r.ones << "x1 "
     << std::setw(4) << r.zeros << "x0  alive " << std::setw(4) << r.alive
     << "  decided " << std::setw(4) << r.decided;
  if (r.halted > 0) os << "  halted " << r.halted;
  if (r.deterministic > 0) os << "  det-stage " << r.deterministic;
  if (r.crashes > 0) os << "  CRASH x" << r.crashes;
  if (repeat > 1) os << "   (x" << repeat << " rounds)";
  os << '\n';
}

}  // namespace

void narrate(const RoundLog& log, std::ostream& os,
             const NarrateOptions& options) {
  const auto& rounds = log.rounds();
  std::uint32_t crashes = 0;
  for (const auto& r : rounds) crashes += r.crashes;
  os << "execution narrative: n = " << log.info().n
     << ", t = " << log.info().t_budget << ", " << rounds.size()
     << " rounds, " << crashes << " crashes\n";
  std::size_t i = 0;
  while (i < rounds.size()) {
    std::size_t j = i + 1;
    if (options.collapse_repeats) {
      while (j < rounds.size() && same_shape(rounds[i], rounds[j])) ++j;
    }
    emit_line(os, rounds[i], j - i, options.bar_width);
    i = j;
  }
}

}  // namespace synran
