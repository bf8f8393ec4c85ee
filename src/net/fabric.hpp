// Broadcast delivery for one synchronous round.
//
// The fast path exploits that almost all senders deliver to *everyone*: it
// aggregates full-delivery senders once (O(n)) and then adjusts per receiver
// only for the few partially-delivered senders — crashed-this-round victims
// add their payload to the recipients that still hear them (victims with
// equal deliver_to masks are summed first, so each distinct mask is walked
// once however many victims share it), omission senders
// (live, but suppressed for a drop set) have their deliveries *subtracted*
// from the aggregate, and corruption senders have the true payload swapped
// for each target's forged one (subtract truth, add forgery; `count` stays
// put because the message still arrives), with the non-invertible or_mask
// rebuilt exactly from per-bit sender counts and forged masks OR'd back on
// top. With k crash victims, total cost stays
// O(n + k·n/64 + Σ over distinct deliver_to masks of |mask| + Σ|faulted
// links|) per round instead of the naive O(n²). A deliberately naive
// reference implementation is provided for cross-checking in tests.
#pragma once

#include <optional>
#include <span>

#include "net/types.hpp"

namespace synran {

/// Inputs to one round of delivery.
struct RoundTraffic {
  /// Per-process outgoing payload; nullopt = sends nothing this round
  /// (crashed earlier, or voluntarily halted).
  std::span<const std::optional<Payload>> payloads;
  /// The fault plan chosen by the adversary for this round. Crash victims,
  /// omission senders, and corruption senders must be senders (payload
  /// present), and no process may appear in more than one directive family;
  /// the fabric checks this.
  const FaultPlan* plan = nullptr;
};

/// Computes the receipt of every process in `receivers` (set bits). Receipts
/// for non-receiver indices are value-initialized. `n` is the system size.
std::vector<Receipt> deliver(std::uint32_t n, const RoundTraffic& traffic,
                             const DynBitset& receivers);

/// Reference implementation: materializes every (sender → receiver) pair.
/// Used only by tests to validate `deliver`.
std::vector<Receipt> deliver_naive(std::uint32_t n, const RoundTraffic& traffic,
                                   const DynBitset& receivers);

}  // namespace synran
