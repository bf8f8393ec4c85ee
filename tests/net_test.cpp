// Unit tests for src/net: payload conventions, fault-plan validation, and
// equivalence of the fast delivery path with the naive reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "net/types.hpp"

namespace synran {
namespace {

std::vector<std::optional<Payload>> bits_payloads(
    const std::vector<int>& bits) {
  std::vector<std::optional<Payload>> out;
  out.reserve(bits.size());
  for (int b : bits) {
    if (b < 0)
      out.emplace_back(std::nullopt);  // silent process
    else
      out.emplace_back(payload::of_bit(b ? Bit::One : Bit::Zero));
  }
  return out;
}

TEST(PayloadTest, OfBitAndSupports) {
  EXPECT_TRUE(payload::supports(payload::of_bit(Bit::One), Bit::One));
  EXPECT_FALSE(payload::supports(payload::of_bit(Bit::One), Bit::Zero));
  EXPECT_TRUE(payload::supports(payload::kSupports0 | payload::kSupports1,
                                Bit::Zero));
}

TEST(FabricTest, FullDeliveryCountsEveryone) {
  const auto payloads = bits_payloads({1, 0, 1, 1});
  DynBitset receivers(4, true);
  RoundTraffic traffic{payloads, nullptr};
  const auto r = deliver(4, traffic, receivers);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r[i].count, 4u);
    EXPECT_EQ(r[i].ones, 3u);
    EXPECT_EQ(r[i].zeros, 1u);
    EXPECT_EQ(r[i].or_mask, payload::kSupports0 | payload::kSupports1);
  }
}

TEST(FabricTest, SilentSendersAreSkipped) {
  const auto payloads = bits_payloads({1, -1, 0});
  DynBitset receivers(3, true);
  RoundTraffic traffic{payloads, nullptr};
  const auto r = deliver(3, traffic, receivers);
  EXPECT_EQ(r[0].count, 2u);
  EXPECT_EQ(r[0].ones, 1u);
}

TEST(FabricTest, CrashWithEmptyDeliveryHidesMessage) {
  const auto payloads = bits_payloads({1, 1, 0});
  FaultPlan plan;
  plan.crashes.push_back({0, DynBitset(3)});
  DynBitset receivers(3, true);
  receivers.reset(0);  // victim no longer receives
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(3, traffic, receivers);
  EXPECT_EQ(r[1].count, 2u);
  EXPECT_EQ(r[1].ones, 1u);
  EXPECT_EQ(r[2].count, 2u);
}

TEST(FabricTest, PartialDeliverySplitsViews) {
  const auto payloads = bits_payloads({1, 0, 0, 0});
  FaultPlan plan;
  DynBitset mask(4);
  mask.set(1);  // only process 1 still hears the crashed 1-sender
  plan.crashes.push_back({0, mask});
  DynBitset receivers(4, true);
  receivers.reset(0);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(4, traffic, receivers);
  EXPECT_EQ(r[1].count, 4u);
  EXPECT_EQ(r[1].ones, 1u);
  EXPECT_EQ(r[2].count, 3u);
  EXPECT_EQ(r[2].ones, 0u);
  EXPECT_EQ(r[3].ones, 0u);
}

TEST(FabricTest, NonReceiversGetNothing) {
  const auto payloads = bits_payloads({1, 1});
  DynBitset receivers(2);
  receivers.set(1);
  RoundTraffic traffic{payloads, nullptr};
  const auto r = deliver(2, traffic, receivers);
  EXPECT_EQ(r[0].count, 0u);
  EXPECT_EQ(r[1].count, 2u);
}

TEST(FabricTest, ValidationRejectsBadPlans) {
  const auto payloads = bits_payloads({1, -1});
  DynBitset receivers(2, true);

  FaultPlan silent_victim;
  silent_victim.crashes.push_back({1, DynBitset(2)});
  RoundTraffic t1{payloads, &silent_victim};
  EXPECT_THROW(deliver(2, t1, receivers), ArgumentError);

  FaultPlan dup;
  dup.crashes.push_back({0, DynBitset(2)});
  dup.crashes.push_back({0, DynBitset(2)});
  RoundTraffic t2{payloads, &dup};
  EXPECT_THROW(deliver(2, t2, receivers), ArgumentError);

  FaultPlan bad_mask;
  bad_mask.crashes.push_back({0, DynBitset(3)});
  RoundTraffic t3{payloads, &bad_mask};
  EXPECT_THROW(deliver(2, t3, receivers), ArgumentError);

  FaultPlan out_of_range;
  out_of_range.crashes.push_back({5, DynBitset(2)});
  RoundTraffic t4{payloads, &out_of_range};
  EXPECT_THROW(deliver(2, t4, receivers), ArgumentError);
}

TEST(FabricTest, WrongPayloadSizeThrows) {
  const auto payloads = bits_payloads({1, 1});
  DynBitset receivers(3, true);
  RoundTraffic traffic{payloads, nullptr};
  EXPECT_THROW(deliver(3, traffic, receivers), ArgumentError);
}

// Property: fast path == naive path on random traffic.
class FabricEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricEquivalence, FastMatchesNaive) {
  Xoshiro256 rng(GetParam());
  const std::uint32_t n = 3 + static_cast<std::uint32_t>(rng.below(60));

  std::vector<std::optional<Payload>> payloads(n);
  std::vector<ProcessId> senders;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.8) {
      payloads[i] = rng.next() & 0x7;  // random low-3-bit payloads
      senders.push_back(i);
    }
  }

  FaultPlan plan;
  DynBitset receivers(n, true);
  if (!senders.empty()) {
    const std::uint32_t crashes = static_cast<std::uint32_t>(
        rng.below(std::min<std::uint64_t>(senders.size(), 5) + 1));
    for (std::uint32_t k = 0; k < crashes; ++k) {
      const std::size_t j = k + rng.below(senders.size() - k);
      std::swap(senders[k], senders[j]);
      DynBitset mask(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.flip()) mask.set(r);
      plan.crashes.push_back({senders[k], mask});
      receivers.reset(senders[k]);
    }
  }
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.2) receivers.reset(i);

  RoundTraffic traffic{payloads, &plan};
  const auto fast = deliver(n, traffic, receivers);
  const auto naive = deliver_naive(n, traffic, receivers);
  ASSERT_EQ(fast.size(), naive.size());
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(fast[i], naive[i]) << "receiver " << i << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(RandomTraffic, FabricEquivalence,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(OmissionFabricTest, DropsLinksForChosenReceivers) {
  const auto payloads = bits_payloads({1, 0, 1, 0});
  FaultPlan plan;
  DynBitset drop(4);
  drop.set(1);
  drop.set(2);  // sender 0's message vanishes for receivers 1 and 2
  plan.omissions.push_back({0, drop});
  DynBitset receivers(4, true);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(4, traffic, receivers);
  EXPECT_EQ(r[0].count, 4u);
  EXPECT_EQ(r[1].count, 3u);
  EXPECT_EQ(r[1].ones, 1u);  // only sender 2's 1 remains
  EXPECT_EQ(r[2].count, 3u);
  EXPECT_EQ(r[3].count, 4u);
  EXPECT_EQ(r[3].ones, 2u);
}

TEST(OmissionFabricTest, OrMaskRebuiltExactly) {
  // Senders 0 and 1 are the only kSupports1 carriers; hiding both from
  // receiver 2 must clear that bit in its or_mask, while receiver 3 (which
  // loses only sender 0) keeps it.
  const auto payloads = bits_payloads({1, 1, 0, 0});
  FaultPlan plan;
  DynBitset drop_both(4);
  drop_both.set(2);
  DynBitset drop_one(4);
  drop_one.set(2);
  drop_one.set(3);
  plan.omissions.push_back({1, drop_both});
  plan.omissions.push_back({0, drop_one});
  DynBitset receivers(4, true);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(4, traffic, receivers);
  EXPECT_EQ(r[2].count, 2u);
  EXPECT_EQ(r[2].ones, 0u);
  EXPECT_FALSE(r[2].or_mask & payload::kSupports1);
  EXPECT_TRUE(r[2].or_mask & payload::kSupports0);
  EXPECT_EQ(r[3].count, 3u);
  EXPECT_EQ(r[3].ones, 1u);
  EXPECT_TRUE(r[3].or_mask & payload::kSupports1);
}

TEST(OmissionFabricTest, ValidationRejectsBadOmissions) {
  const auto payloads = bits_payloads({1, -1, 1});
  DynBitset receivers(3, true);

  FaultPlan non_sender;
  non_sender.omissions.push_back({1, DynBitset(3)});
  RoundTraffic t1{payloads, &non_sender};
  EXPECT_THROW(deliver(3, t1, receivers), ArgumentError);

  FaultPlan dup;
  dup.omissions.push_back({0, DynBitset(3)});
  dup.omissions.push_back({0, DynBitset(3)});
  RoundTraffic t2{payloads, &dup};
  EXPECT_THROW(deliver(3, t2, receivers), ArgumentError);

  FaultPlan bad_mask;
  bad_mask.omissions.push_back({0, DynBitset(2)});
  RoundTraffic t3{payloads, &bad_mask};
  EXPECT_THROW(deliver(3, t3, receivers), ArgumentError);

  FaultPlan out_of_range;
  out_of_range.omissions.push_back({7, DynBitset(3)});
  RoundTraffic t4{payloads, &out_of_range};
  EXPECT_THROW(deliver(3, t4, receivers), ArgumentError);

  FaultPlan crash_and_omit;
  crash_and_omit.crashes.push_back({0, DynBitset(3)});
  crash_and_omit.omissions.push_back({0, DynBitset(3)});
  RoundTraffic t5{payloads, &crash_and_omit};
  EXPECT_THROW(deliver(3, t5, receivers), ArgumentError);
}

// Property: fast path == naive path under mixed crash + omission plans.
class OmissionFabricEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OmissionFabricEquivalence, FastMatchesNaive) {
  Xoshiro256 rng(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
  const std::uint32_t n = 3 + static_cast<std::uint32_t>(rng.below(60));

  std::vector<std::optional<Payload>> payloads(n);
  std::vector<ProcessId> senders;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.8) {
      payloads[i] = rng.next() & 0x7;  // random low-3-bit payloads
      senders.push_back(i);
    }
  }

  FaultPlan plan;
  DynBitset receivers(n, true);
  std::size_t used = 0;  // prefix of `senders` consumed by crash directives
  if (!senders.empty()) {
    const std::uint32_t crashes = static_cast<std::uint32_t>(
        rng.below(std::min<std::uint64_t>(senders.size(), 4) + 1));
    for (std::uint32_t k = 0; k < crashes; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      DynBitset mask(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.flip()) mask.set(r);
      plan.crashes.push_back({senders[used], mask});
      receivers.reset(senders[used]);
      ++used;
    }
  }
  // Omissions target live senders only (the remaining suffix of `senders`).
  if (used < senders.size()) {
    const std::uint32_t omissions = static_cast<std::uint32_t>(rng.below(
        std::min<std::uint64_t>(senders.size() - used, 6) + 1));
    for (std::uint32_t k = 0; k < omissions; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      DynBitset drop(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.uniform() < 0.4) drop.set(r);
      plan.omissions.push_back({senders[used], drop});
      ++used;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.2) receivers.reset(i);

  RoundTraffic traffic{payloads, &plan};
  const auto fast = deliver(n, traffic, receivers);
  const auto naive = deliver_naive(n, traffic, receivers);
  ASSERT_EQ(fast.size(), naive.size());
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(fast[i], naive[i]) << "receiver " << i << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(MixedFaultTraffic, OmissionFabricEquivalence,
                         ::testing::Range<std::uint64_t>(1, 61));

TEST(CorruptFabricTest, ForgerySubstitutesPayloadPerReceiver) {
  // Sender 0 truly sends 1; receivers 1 and 2 instead observe a forged 0
  // (receiver 2's forgery also carries a high marker bit). The message still
  // arrives, so counts are untouched — only the value flips.
  const auto payloads = bits_payloads({1, 0, 1, 0});
  FaultPlan plan;
  CorruptionDirective cd;
  cd.sender = 0;
  cd.forgeries.push_back({1, payload::kSupports0});
  cd.forgeries.push_back({2, payload::kSupports0 | (Payload{1} << 8)});
  plan.corruptions.push_back(std::move(cd));
  DynBitset receivers(4, true);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(4, traffic, receivers);
  EXPECT_EQ(r[0].count, 4u);  // untouched receiver sees the truth
  EXPECT_EQ(r[0].ones, 2u);
  EXPECT_EQ(r[1].count, 4u);  // forged link still delivers a message
  EXPECT_EQ(r[1].ones, 1u);
  EXPECT_EQ(r[1].zeros, 3u);
  EXPECT_EQ(r[2].count, 4u);
  EXPECT_EQ(r[2].ones, 1u);
  EXPECT_TRUE(r[2].or_mask & (Payload{1} << 8));
  EXPECT_FALSE(r[1].or_mask & (Payload{1} << 8));
  EXPECT_EQ(r[3], r[0]);
}

TEST(CorruptFabricTest, OrMaskRebuiltAfterForgery) {
  // Sender 0 is the sole kSupports1 carrier; forging its message to
  // receiver 1 as a pure 0 must clear kSupports1 from that receiver's
  // or_mask while everyone else keeps it.
  const auto payloads = bits_payloads({1, 0, 0});
  FaultPlan plan;
  CorruptionDirective cd;
  cd.sender = 0;
  cd.forgeries.push_back({1, payload::kSupports0});
  plan.corruptions.push_back(std::move(cd));
  DynBitset receivers(3, true);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(3, traffic, receivers);
  EXPECT_FALSE(r[1].or_mask & payload::kSupports1);
  EXPECT_TRUE(r[1].or_mask & payload::kSupports0);
  EXPECT_TRUE(r[0].or_mask & payload::kSupports1);
  EXPECT_TRUE(r[2].or_mask & payload::kSupports1);
}

TEST(CorruptFabricTest, ValidationRejectsBadCorruptions) {
  const auto payloads = bits_payloads({1, -1, 1});
  DynBitset receivers(3, true);
  const auto one_forgery = [](ProcessId sender, ProcessId target) {
    CorruptionDirective cd;
    cd.sender = sender;
    cd.forgeries.push_back({target, payload::kSupports0});
    return cd;
  };

  FaultPlan non_sender;  // silent processes have nothing to corrupt
  non_sender.corruptions.push_back(one_forgery(1, 0));
  RoundTraffic t1{payloads, &non_sender};
  EXPECT_THROW(deliver(3, t1, receivers), ArgumentError);

  FaultPlan dup_sender;
  dup_sender.corruptions.push_back(one_forgery(0, 1));
  dup_sender.corruptions.push_back(one_forgery(0, 2));
  RoundTraffic t2{payloads, &dup_sender};
  EXPECT_THROW(deliver(3, t2, receivers), ArgumentError);

  FaultPlan dup_target;
  dup_target.corruptions.push_back(one_forgery(0, 1));
  dup_target.corruptions.back().forgeries.push_back(
      {1, payload::kSupports1});
  RoundTraffic t3{payloads, &dup_target};
  EXPECT_THROW(deliver(3, t3, receivers), ArgumentError);

  FaultPlan sender_range;
  sender_range.corruptions.push_back(one_forgery(9, 0));
  RoundTraffic t4{payloads, &sender_range};
  EXPECT_THROW(deliver(3, t4, receivers), ArgumentError);

  FaultPlan target_range;
  target_range.corruptions.push_back(one_forgery(0, 9));
  RoundTraffic t5{payloads, &target_range};
  EXPECT_THROW(deliver(3, t5, receivers), ArgumentError);

  FaultPlan crash_overlap;
  crash_overlap.crashes.push_back({0, DynBitset(3)});
  crash_overlap.corruptions.push_back(one_forgery(0, 1));
  RoundTraffic t6{payloads, &crash_overlap};
  EXPECT_THROW(deliver(3, t6, receivers), ArgumentError);

  FaultPlan omit_overlap;
  omit_overlap.omissions.push_back({0, DynBitset(3)});
  omit_overlap.corruptions.push_back(one_forgery(0, 1));
  RoundTraffic t7{payloads, &omit_overlap};
  EXPECT_THROW(deliver(3, t7, receivers), ArgumentError);
}

// Property: fast path == naive path under mixed crash + omission +
// corruption plans, including forged payload bits outside the value
// conventions (they must round-trip through the or_mask rebuild exactly).
class CorruptFabricEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorruptFabricEquivalence, FastMatchesNaive) {
  Xoshiro256 rng(GetParam() * 0xd1b54a32d192ed03ULL + 1);
  const std::uint32_t n = 3 + static_cast<std::uint32_t>(rng.below(60));

  std::vector<std::optional<Payload>> payloads(n);
  std::vector<ProcessId> senders;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.8) {
      payloads[i] = rng.next() & 0x7;  // random low-3-bit payloads
      senders.push_back(i);
    }
  }

  FaultPlan plan;
  DynBitset receivers(n, true);
  std::size_t used = 0;  // prefix of `senders` consumed by directives so far
  if (!senders.empty()) {
    const std::uint32_t crashes = static_cast<std::uint32_t>(
        rng.below(std::min<std::uint64_t>(senders.size(), 3) + 1));
    for (std::uint32_t k = 0; k < crashes; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      DynBitset mask(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.flip()) mask.set(r);
      plan.crashes.push_back({senders[used], mask});
      receivers.reset(senders[used]);
      ++used;
    }
  }
  if (used < senders.size()) {
    const std::uint32_t omissions = static_cast<std::uint32_t>(rng.below(
        std::min<std::uint64_t>(senders.size() - used, 4) + 1));
    for (std::uint32_t k = 0; k < omissions; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      DynBitset drop(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.uniform() < 0.4) drop.set(r);
      plan.omissions.push_back({senders[used], drop});
      ++used;
    }
  }
  // Corruptions claim live senders disjoint from the crash and omission
  // prefixes; forged payloads roam a wider bit range than the true ones.
  if (used < senders.size()) {
    const std::uint32_t corruptions = static_cast<std::uint32_t>(rng.below(
        std::min<std::uint64_t>(senders.size() - used, 4) + 1));
    for (std::uint32_t k = 0; k < corruptions; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      CorruptionDirective cd;
      cd.sender = senders[used];
      DynBitset targeted(n);
      const std::uint32_t forgeries =
          1 + static_cast<std::uint32_t>(rng.below(n));
      for (std::uint32_t f = 0; f < forgeries; ++f) {
        const auto target = static_cast<ProcessId>(rng.below(n));
        if (targeted.test(target)) continue;
        targeted.set(target);
        cd.forgeries.push_back({target, rng.next() & 0x3ff});
      }
      plan.corruptions.push_back(std::move(cd));
      ++used;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.2) receivers.reset(i);

  RoundTraffic traffic{payloads, &plan};
  const auto fast = deliver(n, traffic, receivers);
  const auto naive = deliver_naive(n, traffic, receivers);
  ASSERT_EQ(fast.size(), naive.size());
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(fast[i], naive[i]) << "receiver " << i << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(MixedFaultTraffic, CorruptFabricEquivalence,
                         ::testing::Range<std::uint64_t>(1, 66));

// Property: fast path == naive path when many crash victims share a few
// deliver_to masks — the grouped path, where victims with equal masks are
// summed before a single walk. Masks come in the shapes the adversaries
// build (empty, CoinBias's alternating `half`, its every-fifth `reserve`)
// plus a random one, assigned to victims interleaved so equal masks are
// not adjacent; omissions and corruptions ride along on the remaining
// senders. Sizes straddle the 64-bit word boundary and reach n = 1024.
class GroupedCrashFabricEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupedCrashFabricEquivalence, FastMatchesNaive) {
  constexpr std::uint32_t kSizes[] = {63, 64, 65, 1024};
  Xoshiro256 rng(GetParam() * 0x9e3779b97f4a7c15ULL + 5);
  const std::uint32_t n = kSizes[GetParam() % 4];

  std::vector<std::optional<Payload>> payloads(n);
  std::vector<ProcessId> senders;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.9) {
      payloads[i] = rng.next() & 0x7;
      senders.push_back(i);
    }
  }
  for (std::size_t k = 0; k < senders.size(); ++k) {
    std::swap(senders[k], senders[k + rng.below(senders.size() - k)]);
  }

  DynBitset live(n);
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.85) live.set(i);
  std::vector<DynBitset> shapes;
  shapes.emplace_back(n);  // reaches nobody
  DynBitset half(n), reserve(n), random(n);
  bool tick = rng.flip();
  std::uint32_t fifth = static_cast<std::uint32_t>(rng.below(5));
  live.for_each_set([&](std::size_t i) {
    if (tick) half.set(i);
    tick = !tick;
    if (fifth++ % 5 == 0) reserve.set(i);
    if (rng.flip()) random.set(i);
  });
  shapes.push_back(half);
  shapes.push_back(reserve);
  shapes.push_back(random);
  const std::size_t in_use = 1 + rng.below(shapes.size());

  // Victims take most of the senders; the rest are left for link faults.
  FaultPlan plan;
  DynBitset receivers = live;
  const std::size_t victims = senders.size() * 3 / 4;
  for (std::size_t k = 0; k < victims; ++k) {
    const ProcessId v = senders[k];
    plan.crashes.push_back({v, shapes[rng.below(in_use)]});
    receivers.reset(v);
  }
  std::size_t used = victims;
  const std::size_t omissions =
      std::min<std::size_t>(senders.size() - used, rng.below(6));
  for (std::size_t k = 0; k < omissions; ++k, ++used) {
    // Omissions alternate between two shared drop sets.
    plan.omissions.push_back(
        {senders[used], k % 2 == 0 ? shapes[1] : shapes[3]});
  }
  const std::size_t corruptions =
      std::min<std::size_t>(senders.size() - used, rng.below(4));
  for (std::size_t k = 0; k < corruptions; ++k, ++used) {
    CorruptionDirective cd;
    cd.sender = senders[used];
    for (std::uint32_t r = 0; r < n; r += 1 + static_cast<std::uint32_t>(
                                               rng.below(n / 8 + 1))) {
      cd.forgeries.push_back({r, rng.next() & 0x3ff});
    }
    plan.corruptions.push_back(std::move(cd));
  }

  RoundTraffic traffic{payloads, &plan};
  const auto fast = deliver(n, traffic, receivers);
  const auto naive = deliver_naive(n, traffic, receivers);
  ASSERT_EQ(fast.size(), naive.size());
  for (std::uint32_t i = 0; i < n; ++i)
    ASSERT_EQ(fast[i], naive[i]) << "receiver " << i << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SharedMasks, GroupedCrashFabricEquivalence,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace synran
