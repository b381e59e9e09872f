/**
 * @file
 * Tests for synthetic traffic patterns and the Bernoulli injector.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "noc/network.hpp"
#include "sim/simulation.hpp"
#include "traffic/injector.hpp"

namespace fasttrack {
namespace {

TEST(Pattern, BitComplementIsInvolution)
{
    DestinationGenerator gen(TrafficPattern::bitComplement, 8);
    Rng rng(1);
    for (NodeId src = 0; src < 64; ++src) {
        const NodeId d = gen.dest(src, rng);
        EXPECT_LT(d, 64u);
        EXPECT_EQ(gen.dest(d, rng), src);
        EXPECT_NE(d, src);
    }
}

TEST(Pattern, TransposeSwapsCoordinates)
{
    DestinationGenerator gen(TrafficPattern::transpose, 8);
    Rng rng(1);
    for (NodeId src = 0; src < 64; ++src) {
        const Coord s = toCoord(src, 8);
        const Coord d = toCoord(gen.dest(src, rng), 8);
        EXPECT_EQ(d.x, s.y);
        EXPECT_EQ(d.y, s.x);
    }
}

TEST(Pattern, RandomNeverSelfAndCoversAll)
{
    DestinationGenerator gen(TrafficPattern::random, 4);
    Rng rng(2);
    std::map<NodeId, int> hits;
    for (int i = 0; i < 8000; ++i) {
        const NodeId d = gen.dest(5, rng);
        EXPECT_NE(d, 5u);
        EXPECT_LT(d, 16u);
        ++hits[d];
    }
    EXPECT_EQ(hits.size(), 15u);
    // Roughly uniform: each other node within 25% of expectation.
    for (const auto &[node, count] : hits)
        EXPECT_NEAR(count, 8000.0 / 15.0, 8000.0 / 15.0 * 0.25);
}

TEST(Pattern, LocalStaysWithinRadius)
{
    DestinationGenerator gen(TrafficPattern::local, 8, 2);
    Rng rng(3);
    for (int i = 0; i < 4000; ++i) {
        const NodeId src = static_cast<NodeId>(rng.nextBelow(64));
        const Coord s = toCoord(src, 8);
        const Coord d = toCoord(gen.dest(src, rng), 8);
        const std::uint32_t dist =
            ringDistance(s.x, d.x, 8) + ringDistance(s.y, d.y, 8);
        EXPECT_GE(dist, 1u);
        EXPECT_LE(dist, 2u);
    }
}

TEST(Pattern, LocalNeverSelfOnTinyTorus)
{
    DestinationGenerator gen(TrafficPattern::local, 2, 2);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i)
        EXPECT_NE(gen.dest(0, rng), 0u);
}

TEST(PatternDeathTest, BitComplementNeedsPowerOfTwo)
{
    EXPECT_EXIT(DestinationGenerator(TrafficPattern::bitComplement, 6),
                ::testing::ExitedWithCode(1), "power-of-two");
}

TEST(Pattern, NamesRoundTrip)
{
    for (TrafficPattern p : kAllPatterns)
        EXPECT_EQ(patternFromString(toString(p)), p);
}

PendingPacket
pending(std::uint64_t id)
{
    PendingPacket rec;
    rec.id = id;
    rec.created = id * 3;
    rec.dst = static_cast<NodeId>(id % 64);
    return rec;
}

std::vector<std::uint64_t>
ringIds(const BacklogRing &ring)
{
    std::vector<std::uint64_t> ids;
    ring.forEach([&](const PendingPacket &rec) { ids.push_back(rec.id); });
    return ids;
}

TEST(BacklogRing, FifoOrderSurvivesGrowthWithWrappedHead)
{
    BacklogRing ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 0u);
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    ring.push_back(pending(++pushed));
    const std::size_t first_cap = ring.capacity();
    ASSERT_GE(first_cap, 2u);
    while (ring.size() < first_cap)
        ring.push_back(pending(++pushed));
    // Pop half, refill to full: the live range now wraps the end of
    // the storage, so the next push grows a wrapped ring.
    for (std::size_t i = 0; i < first_cap / 2; ++i) {
        EXPECT_EQ(ring.front().id, ++popped);
        ring.pop_front();
    }
    while (ring.size() < first_cap)
        ring.push_back(pending(++pushed));
    EXPECT_EQ(ring.capacity(), first_cap);
    ring.push_back(pending(++pushed));
    EXPECT_EQ(ring.capacity(), 2 * first_cap);
    EXPECT_EQ(ring.size(), first_cap + 1);
    // Grow three more times, each from a full ring whose head sits
    // mid-storage.
    for (int round = 0; round < 3; ++round) {
        const std::size_t cap = ring.capacity();
        for (std::size_t i = 0; i < cap / 3; ++i) {
            EXPECT_EQ(ring.front().id, ++popped);
            ring.pop_front();
        }
        while (ring.size() < cap)
            ring.push_back(pending(++pushed));
        EXPECT_EQ(ring.capacity(), cap);
        ring.push_back(pending(++pushed));
        EXPECT_EQ(ring.capacity(), 2 * cap);
    }
    while (!ring.empty()) {
        const PendingPacket rec = ring.front();
        ++popped;
        EXPECT_EQ(rec.id, popped);
        EXPECT_EQ(rec.created, popped * 3);
        EXPECT_EQ(rec.dst, static_cast<NodeId>(popped % 64));
        ring.pop_front();
    }
    EXPECT_EQ(popped, pushed);
}

TEST(BacklogRing, ForEachVisitsInPopOrder)
{
    BacklogRing ring;
    std::uint64_t pushed = 0;
    for (int i = 0; i < 13; ++i)
        ring.push_back(pending(++pushed));
    for (int i = 0; i < 9; ++i)
        ring.pop_front();
    for (int i = 0; i < 10; ++i)
        ring.push_back(pending(++pushed)); // wraps the 16-slot storage
    const std::vector<std::uint64_t> seen = ringIds(ring);
    ASSERT_EQ(seen.size(), ring.size());
    for (std::uint64_t id : seen) {
        EXPECT_EQ(ring.front().id, id);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
    EXPECT_TRUE(ringIds(ring).empty());
}

TEST(BacklogRing, DrainedRingKeepsItsStorage)
{
    BacklogRing ring;
    for (std::uint64_t id = 1; id <= 20; ++id)
        ring.push_back(pending(id));
    const std::size_t cap = ring.capacity();
    while (!ring.empty())
        ring.pop_front();
    EXPECT_EQ(ring.capacity(), cap);
    for (std::uint64_t round = 0; round < 100; ++round) {
        ring.push_back(pending(round));
        EXPECT_EQ(ring.front().id, round);
        ring.pop_front();
    }
    EXPECT_EQ(ring.capacity(), cap);
}

TEST(Injector, GeneratesExactBudget)
{
    Network noc(NocConfig::hoplite(4));
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 0.5;
    workload.packetsPerPe = 50;
    SyntheticInjector injector(noc, workload);
    EXPECT_EQ(injector.budget(), 16u * 50);

    for (int guard = 0; guard < 100000 && !injector.done(); ++guard) {
        injector.tick();
        noc.step();
    }
    ASSERT_TRUE(injector.done());
    EXPECT_EQ(injector.generated(), 16u * 50);
    EXPECT_EQ(noc.stats().delivered + noc.stats().selfDelivered,
              16u * 50);
}

TEST(Injector, GenerationRateMatchesConfig)
{
    Network noc(NocConfig::hoplite(8));
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 0.10;
    workload.packetsPerPe = 1u << 30; // effectively unbounded
    SyntheticInjector injector(noc, workload);

    constexpr int kCycles = 5000;
    for (int i = 0; i < kCycles; ++i) {
        injector.tick();
        noc.step();
    }
    const double per_pe_per_cycle =
        static_cast<double>(injector.generated()) / (64.0 * kCycles);
    EXPECT_NEAR(per_pe_per_cycle, 0.10, 0.01);
}

TEST(Injector, SustainedRateEqualsOfferedBelowSaturation)
{
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 0.05;
    workload.packetsPerPe = 500;
    const SynthResult res =
        runSynthetic(NocConfig::hoplite(8), 1, workload);
    ASSERT_TRUE(res.completed);
    // Below saturation the NoC keeps up with generation; the measured
    // rate only differs from offered by the final drain tail.
    EXPECT_NEAR(res.sustainedRate(), 0.05, 0.006);
}

TEST(InjectorDeathTest, RejectsBadRate)
{
    Network noc(NocConfig::hoplite(4));
    SyntheticWorkload workload;
    workload.injectionRate = 0.0;
    EXPECT_DEATH(SyntheticInjector(noc, workload), "injection rate");
}

} // namespace
} // namespace fasttrack
