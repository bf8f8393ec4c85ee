#include "net/fabric.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/check.hpp"

namespace synran {

namespace {

void accumulate(Receipt& r, Payload p) {
  ++r.count;
  if (p & payload::kSupports1) ++r.ones;
  if (p & payload::kSupports0) ++r.zeros;
  r.or_mask |= p;
}

void validate(std::uint32_t n, const RoundTraffic& traffic) {
  SYNRAN_REQUIRE(traffic.payloads.size() == n, "payloads size != n");
  if (traffic.plan == nullptr) return;
  DynBitset seen(n);
  for (const auto& c : traffic.plan->crashes) {
    SYNRAN_REQUIRE(c.victim < n, "crash victim out of range");
    SYNRAN_REQUIRE(traffic.payloads[c.victim].has_value(),
                   "crash victim is not sending this round");
    SYNRAN_REQUIRE(!seen.test(c.victim), "duplicate crash victim");
    SYNRAN_REQUIRE(c.deliver_to.size() == n, "deliver_to mask has wrong size");
    seen.set(c.victim);
  }
  DynBitset omitted(n);
  for (const auto& o : traffic.plan->omissions) {
    SYNRAN_REQUIRE(o.sender < n, "omission sender out of range");
    SYNRAN_REQUIRE(traffic.payloads[o.sender].has_value(),
                   "omission sender is not sending this round");
    SYNRAN_REQUIRE(!seen.test(o.sender),
                   "omission sender is also a crash victim");
    SYNRAN_REQUIRE(!omitted.test(o.sender), "duplicate omission sender");
    SYNRAN_REQUIRE(o.drop_for.size() == n, "drop_for mask has wrong size");
    omitted.set(o.sender);
  }
  DynBitset corrupted(n);
  DynBitset targets(n);
  for (const auto& cd : traffic.plan->corruptions) {
    SYNRAN_REQUIRE(cd.sender < n, "corruption sender out of range");
    SYNRAN_REQUIRE(traffic.payloads[cd.sender].has_value(),
                   "corruption sender is not sending this round");
    SYNRAN_REQUIRE(!seen.test(cd.sender),
                   "corruption sender is also a crash victim");
    SYNRAN_REQUIRE(!omitted.test(cd.sender),
                   "corruption sender is also an omission sender");
    SYNRAN_REQUIRE(!corrupted.test(cd.sender), "duplicate corruption sender");
    corrupted.set(cd.sender);
    targets.clear_all();
    for (const auto& fg : cd.forgeries) {
      SYNRAN_REQUIRE(fg.target < n, "forgery target out of range");
      SYNRAN_REQUIRE(!targets.test(fg.target), "duplicate forgery target");
      targets.set(fg.target);
    }
  }
}

/// Applies the plan's link-level faults — omitted deliveries and corrupted
/// (forged) deliveries — to receipts pre-filled with the full-sender
/// aggregate. Counts are additive, so removing a true payload is a decrement
/// (an omission removes it outright; a corruption removes it and accumulates
/// the forged payload in its place). The OR of payload masks is not
/// invertible, so affected receivers get their or_mask rebuilt exactly from
/// per-bit sender counts — bit b survives for receiver r iff some
/// full-aggregate sender whose *true* message still reaches r carries it —
/// and the receiver's forged payloads are OR'd back on top. Total cost
/// O(n·|payload bits| + Σ dropped links + Σ forged links), so the fast path
/// keeps its O(n + faults·n_bits/64) shape even when nearly every sender has
/// a small drop set (the chaos regime).
void apply_link_faults(std::uint32_t n, const RoundTraffic& traffic,
                       const DynBitset& receivers, const DynBitset& crashed,
                       const Receipt& full, std::vector<Receipt>& out) {
  // Per-bit population over the full-aggregate senders (every sender that is
  // sending and not crashed this round; omitted senders are among them).
  std::array<std::uint32_t, 64> base_bits{};
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!traffic.payloads[i].has_value() || crashed.test(i)) continue;
    Payload bits = *traffic.payloads[i];
    while (bits != 0) {
      base_bits[static_cast<std::size_t>(std::countr_zero(bits))] += 1;
      bits &= bits - 1;
    }
  }

  // Per-receiver dropped-sender counts, one lazily-sized column per payload
  // bit in use (a handful in practice: the value bits + the det flag).
  std::array<std::vector<std::uint32_t>, 64> drop_bits;
  DynBitset affected(n);
  const auto drop_true_payload = [&](Payload p, std::size_t r) {
    Receipt& out_r = out[r];
    if (p & payload::kSupports1) --out_r.ones;
    if (p & payload::kSupports0) --out_r.zeros;
    affected.set(r);
    Payload bits = p;
    while (bits != 0) {
      auto& column =
          drop_bits[static_cast<std::size_t>(std::countr_zero(bits))];
      if (column.empty()) column.assign(n, 0);
      column[r] += 1;
      bits &= bits - 1;
    }
  };
  for (const auto& o : traffic.plan->omissions) {
    const Payload p = *traffic.payloads[o.sender];
    o.drop_for.for_each_set([&](std::size_t r) {
      if (!receivers.test(r)) return;
      --out[r].count;
      drop_true_payload(p, r);
    });
  }

  // A corrupted link substitutes the forged payload for the true one: the
  // true payload is dropped exactly like an omission, the forged counts are
  // added directly, and the forged mask is OR'd on after the rebuild. The
  // message itself still arrives, so `count` is untouched.
  std::vector<Payload> forged_or;
  for (const auto& cd : traffic.plan->corruptions) {
    const Payload p = *traffic.payloads[cd.sender];
    for (const auto& fg : cd.forgeries) {
      const std::size_t r = fg.target;
      if (!receivers.test(r)) continue;
      drop_true_payload(p, r);
      Receipt& out_r = out[r];
      if (fg.forged & payload::kSupports1) ++out_r.ones;
      if (fg.forged & payload::kSupports0) ++out_r.zeros;
      if (forged_or.empty()) forged_or.assign(n, 0);
      forged_or[r] |= fg.forged;
    }
  }

  affected.for_each_set([&](std::size_t r) {
    Payload mask = 0;
    Payload bits = full.or_mask;
    while (bits != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::uint32_t dropped =
          drop_bits[b].empty() ? 0 : drop_bits[b][r];
      if (base_bits[b] > dropped) mask |= Payload{1} << b;
    }
    if (!forged_or.empty()) mask |= forged_or[r];
    out[r].or_mask = mask;
  });
}

/// Adds each crash victim's payload to the receivers its `deliver_to` still
/// reaches. Victims sharing a mask (CoinBias hands hundreds of them one
/// `half` or `reserve` mask) are first summed into one group — a flat
/// open-addressing table keyed by the mask's hash, each hit confirmed by
/// word equality — so every distinct mask's set bits are walked once:
/// O(k·n/64) to hash and confirm k masks plus Σ|distinct mask|. Counts add
/// and masks OR, so the grouping cannot change a receipt.
void add_crash_deliveries(const RoundTraffic& traffic,
                          const DynBitset& receivers,
                          std::vector<Receipt>& out) {
  struct Group {
    const DynBitset* mask;
    std::uint64_t hash;
    Receipt sum;
  };
  constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  const auto& crashes = traffic.plan->crashes;
  std::vector<Group> groups;
  std::vector<std::uint32_t> slots(std::bit_ceil(2 * crashes.size()), kEmpty);
  const std::size_t slot_mask = slots.size() - 1;
  for (const auto& c : crashes) {
    const std::uint64_t h = c.deliver_to.hash();
    std::size_t s = h & slot_mask;
    while (slots[s] != kEmpty && (groups[slots[s]].hash != h ||
                                  *groups[slots[s]].mask != c.deliver_to)) {
      s = (s + 1) & slot_mask;
    }
    if (slots[s] == kEmpty) {
      slots[s] = static_cast<std::uint32_t>(groups.size());
      groups.push_back({&c.deliver_to, h, Receipt{}});
    }
    accumulate(groups[slots[s]].sum, *traffic.payloads[c.victim]);
  }
  for (const auto& g : groups) {
    g.mask->for_each_set_and(receivers, [&](std::size_t i) {
      Receipt& r = out[i];
      r.count += g.sum.count;
      r.ones += g.sum.ones;
      r.zeros += g.sum.zeros;
      r.or_mask |= g.sum.or_mask;
    });
  }
}

}  // namespace

std::vector<Receipt> deliver(std::uint32_t n, const RoundTraffic& traffic,
                             const DynBitset& receivers) {
  validate(n, traffic);
  SYNRAN_REQUIRE(receivers.size() == n, "receivers mask has wrong size");

  // Aggregate over senders that deliver everywhere. Omitted senders stay in
  // the aggregate; their dropped links are subtracted per receiver below.
  DynBitset crashed_now(n);
  if (traffic.plan != nullptr) {
    for (const auto& c : traffic.plan->crashes) crashed_now.set(c.victim);
  }

  Receipt full{};
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!traffic.payloads[i].has_value() || crashed_now.test(i)) continue;
    accumulate(full, *traffic.payloads[i]);
  }

  std::vector<Receipt> out(n);
  receivers.for_each_set([&](std::size_t i) { out[i] = full; });

  // Link-fault application must precede the crash additions: it rebuilds
  // affected receivers' or_mask from the aggregate senders alone, and the
  // partial crash deliveries then OR their payloads back on top.
  if (traffic.plan != nullptr && (!traffic.plan->omissions.empty() ||
                                  !traffic.plan->corruptions.empty())) {
    apply_link_faults(n, traffic, receivers, crashed_now, full, out);
  }

  if (traffic.plan != nullptr && !traffic.plan->crashes.empty()) {
    add_crash_deliveries(traffic, receivers, out);
  }
  return out;
}

std::vector<Receipt> deliver_naive(std::uint32_t n, const RoundTraffic& traffic,
                                   const DynBitset& receivers) {
  validate(n, traffic);
  SYNRAN_REQUIRE(receivers.size() == n, "receivers mask has wrong size");

  // Build the full delivery matrix, then fold.
  std::vector<Receipt> out(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!traffic.payloads[s].has_value()) continue;
    const Payload p = *traffic.payloads[s];
    const DynBitset* mask = nullptr;
    const DynBitset* drop = nullptr;
    const CorruptionDirective* corrupt = nullptr;
    if (traffic.plan != nullptr) {
      for (const auto& c : traffic.plan->crashes) {
        if (c.victim == s) {
          mask = &c.deliver_to;
          break;
        }
      }
      for (const auto& o : traffic.plan->omissions) {
        if (o.sender == s) {
          drop = &o.drop_for;
          break;
        }
      }
      for (const auto& cd : traffic.plan->corruptions) {
        if (cd.sender == s) {
          corrupt = &cd;
          break;
        }
      }
    }
    for (std::uint32_t r = 0; r < n; ++r) {
      if (!receivers.test(r)) continue;
      if (mask != nullptr && !mask->test(r)) continue;
      if (drop != nullptr && drop->test(r)) continue;
      Payload observed = p;
      if (corrupt != nullptr) {
        for (const auto& fg : corrupt->forgeries) {
          if (fg.target == r) {
            observed = fg.forged;
            break;
          }
        }
      }
      accumulate(out[r], observed);
    }
  }
  return out;
}

}  // namespace synran
