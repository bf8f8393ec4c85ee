// Human-readable execution narration: renders the rounds an EngineObserver
// saw as the round-by-round story the paper's arguments are about —
// population, traffic composition, adversary spend — so a single execution
// can be read like the proof sketches read.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "obs/observer.hpp"

namespace synran {

/// Records one execution's RunInfo and every completed round
/// (on_round_end). Install it as, or inside, EngineOptions::observer.
class RoundLog final : public obs::EngineObserver {
 public:
  void on_run_begin(const obs::RunInfo& info) override {
    info_ = info;
    rounds_.clear();
  }
  void on_round_end(const obs::RoundObservation& round) override {
    rounds_.push_back(round);
  }

  const obs::RunInfo& info() const { return info_; }
  const std::vector<obs::RoundObservation>& rounds() const { return rounds_; }

 private:
  obs::RunInfo info_;
  std::vector<obs::RoundObservation> rounds_;
};

struct NarrateOptions {
  /// Collapse runs of identical-looking rounds into one "× k" line.
  bool collapse_repeats = true;
  /// Width of the ones/zeros composition bar.
  std::size_t bar_width = 30;
};

/// Writes one line per round (or per collapsed run) to `os`.
void narrate(const RoundLog& log, std::ostream& os,
             const NarrateOptions& options = {});

}  // namespace synran
