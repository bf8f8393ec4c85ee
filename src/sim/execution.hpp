// The synchronous execution state of §3.1 and its round step.
//
// One round is phase A (each live process digests last round's receipt,
// draws coins and prepares its broadcast), the adversary's fault plan, and
// phase B (delivery to the surviving, non-halted receivers, then the crashes
// are committed). The engine, Monte-Carlo rollouts (sim/rollout.hpp) and the
// exact valency evaluator (lowerbound/valency.hpp) all drive executions
// through this one state, so the three views of Pr[v | α_k, b] play the same
// round. Callers differ only in where coins come from: the engine hands each
// process its seeded stream, a rollout its per-fork streams, and the valency
// evaluator one enumerated coin tape.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/dynbitset.hpp"
#include "common/ids.hpp"
#include "net/types.hpp"
#include "sim/adversary.hpp"
#include "sim/process.hpp"

namespace synran {

/// What phase B of one round delivered, before its plan is committed.
struct DeliveryTally {
  std::uint64_t delivered = 0;  ///< point-to-point deliveries
  std::uint64_t omitted = 0;    ///< links suppressed by omission directives
  std::uint64_t corrupted = 0;  ///< links forged by corruption directives
};

/// The decision status of the processes still alive.
struct SurvivorVerdict {
  bool all_decided = true;    ///< every survivor has decided
  bool has_decision = false;  ///< at least one survivor has decided
  bool agreement = false;     ///< has_decision and all decided survivors agree
  Bit decision = Bit::Zero;   ///< the lowest-id decided survivor's value
};

/// Processes, populations, this round's payloads, pending receipts and the
/// remaining crash budget of one execution. Copies are deep (every process
/// is cloned) and independent.
class ExecutionState {
 public:
  ExecutionState() = default;
  ExecutionState(const ExecutionState& other);
  ExecutionState& operator=(const ExecutionState& other);
  ExecutionState(ExecutionState&&) = default;
  ExecutionState& operator=(ExecutionState&&) = default;

  /// Starts a fresh execution: one process per input, everyone alive,
  /// nothing received yet, `budget` crashes left. Reuses the buffers of a
  /// previous execution of the same size.
  void start(const ProcessFactory& factory, std::span<const Bit> inputs,
             std::uint32_t budget);

  /// Deep-copies the execution visible in `world`: the adversary decision
  /// point of a round, after phase A and before delivery.
  static ExecutionState fork(const WorldView& world);

  /// Phase A: every alive, non-halted process i steps on its pending
  /// receipt with the coin source `coins(i)` returns (called once per
  /// stepping process, in increasing id order) and sets its payload; a
  /// process that returns nothing halts. Returns true iff anyone sends.
  template <class Coins>
  bool phase_a(Coins&& coins);

  /// Phase B under `plan`: delivers this round's payloads to the active
  /// receivers (alive, not halted, not crashed by `plan`) and stores their
  /// receipts. The plan's crashes stay uncommitted until commit(); active()
  /// names the receivers until then. Throws InvariantError when the plan
  /// crashes more processes than the budget has left.
  DeliveryTally phase_b(const FaultPlan& plan);

  /// Commits the plan's crashes and charges them to the budget.
  void commit(const FaultPlan& plan);

  /// phase_b() then commit().
  DeliveryTally apply(const FaultPlan& plan) {
    const DeliveryTally tally = phase_b(plan);
    commit(plan);
    return tally;
  }

  /// True iff every alive process has decided.
  bool all_decided() const;
  SurvivorVerdict verdict() const;

  /// A crash-only view of this state for an adversary planning `round`
  /// (valid until the next mutation).
  WorldView view(Round round, std::uint32_t round_cap) const {
    return WorldView(round, n_, alive_, halted_, payloads_, procs_,
                     budget_left_, round_cap);
  }

  std::uint32_t n() const { return n_; }
  const DynBitset& alive() const { return alive_; }
  const DynBitset& halted() const { return halted_; }
  /// Receivers of the last phase_b().
  const DynBitset& active() const { return active_; }
  std::span<const std::optional<Payload>> payloads() const {
    return payloads_;
  }
  std::span<const std::unique_ptr<Process>> processes() const {
    return procs_;
  }
  const Process& process(ProcessId p) const { return *procs_[p]; }
  /// The receipt process `p` digests in its next phase A; nullptr in its
  /// first round.
  const Receipt* receipt(ProcessId p) const {
    return have_receipt_[p] != 0 ? &receipts_[p] : nullptr;
  }
  std::uint32_t budget_left() const { return budget_left_; }

 private:
  std::uint32_t n_ = 0;
  std::vector<std::unique_ptr<Process>> procs_;
  DynBitset alive_;   ///< not crashed by the adversary
  DynBitset halted_;  ///< voluntarily stopped
  DynBitset active_;  ///< last phase_b()'s receivers
  std::vector<std::optional<Payload>> payloads_;
  std::vector<Receipt> receipts_;
  std::vector<std::uint8_t> have_receipt_;
  std::uint32_t budget_left_ = 0;
};

template <class Coins>
bool ExecutionState::phase_a(Coins&& coins) {
  bool anyone_sending = false;
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (!alive_.test(i) || halted_.test(i)) {
      payloads_[i].reset();
      continue;
    }
    payloads_[i] = procs_[i]->on_round(receipt(i), coins(i));
    if (!payloads_[i].has_value()) {
      SYNRAN_CHECK_MSG(procs_[i]->decided(),
                       "process halted without deciding");
      halted_.set(i);
    } else {
      anyone_sending = true;
    }
  }
  return anyone_sending;
}

}  // namespace synran
