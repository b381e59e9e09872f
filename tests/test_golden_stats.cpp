/**
 * @file
 * Golden-stats equivalence pins for the cycle engine: fixed-seed runs
 * of the standard lineup (Hoplite, FT(64,2,1), FT(64,2,2) and
 * multi-channel Hoplite) must reproduce recorded NocStats and latency
 * histograms, and each network's per-node counters and per-link
 * traversal tallies, bit for bit. Any engine refactor that changes routing
 * decisions, arbitration order or measurement bookkeeping trips these
 * hashes; an intentional behavior change must re-record them (run the
 * suite and copy the "actual" values printed by the failures) and
 * justify the delta in the commit message.
 *
 * The lineup runs at rate 0.35; the injector-stream pins below add
 * the sweep's other operating points (0.01, 0.1 and 1.0, where the
 * source backlog runs deepest) and the LOCAL and BITCOMPL patterns
 * (LOCAL draws its destination through Rng::nextBelow, BITCOMPL draws
 * none), so any change to the Bernoulli draw, the draw order or the
 * backlog order trips a hash.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "noc/multichannel.hpp"
#include "noc/network.hpp"
#include "sim/simulation.hpp"
#include "traffic/injector.hpp"

#include "golden_hash.hpp"

namespace fasttrack {
namespace {

/** Run the standard closed workload on @p noc and hash the result. */
std::uint64_t
runLineup(NocDevice &noc, TrafficPattern pattern, std::uint64_t seed,
          double rate = 0.35)
{
    SyntheticWorkload workload;
    workload.pattern = pattern;
    workload.injectionRate = rate;
    workload.packetsPerPe = 200;
    workload.seed = seed;
    SyntheticInjector injector(noc, workload);

    const Cycle limit = 400000;
    while (!injector.done() && noc.now() < limit) {
        injector.tick();
        noc.step();
    }
    EXPECT_TRUE(injector.done()) << "workload did not complete";
    return hashStats(noc.statsSnapshot());
}

TEST(GoldenStats, Hoplite8Random)
{
    Network noc(NocConfig::hoplite(8));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 11),
              6920804258037780977ull);
    EXPECT_EQ(hashCounters(noc), 5457168283347540476ull);
}

TEST(GoldenStats, FastTrack8D2R1Random)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 12),
              13018505667610585120ull);
    EXPECT_EQ(hashCounters(noc), 4284318511033215640ull);
}

TEST(GoldenStats, FastTrack8D2R2Random)
{
    Network noc(NocConfig::fastTrack(8, 2, 2));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 13),
              1807215248422678562ull);
    EXPECT_EQ(hashCounters(noc), 18267648245115664175ull);
}

TEST(GoldenStats, FastTrack8D2R1Transpose)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::transpose, 14),
              15785417443856874428ull);
    EXPECT_EQ(hashCounters(noc), 5373590604035020559ull);
}

TEST(GoldenStats, MultiChannel8x2Random)
{
    MultiChannelNoc noc(NocConfig::hoplite(8), 2);
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 15),
              11140384843414844015ull);
    EXPECT_EQ(hashCounters(noc.channel(0)), 6821447742346785580ull);
    EXPECT_EQ(hashCounters(noc.channel(1)), 9497480079032363002ull);
}

TEST(GoldenStats, InjectVariant8D2R2Random)
{
    Network noc(
        NocConfig::fastTrack(8, 2, 2, NocVariant::ftInject));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 16),
              17854748734557977273ull);
    EXPECT_EQ(hashCounters(noc), 13686134556581311563ull);
}

TEST(GoldenStats, FastTrack8D2R1RandomRate001)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 21, 0.01),
              9299356382054477720ull);
    EXPECT_EQ(hashCounters(noc), 14286071398348069609ull);
}

TEST(GoldenStats, FastTrack8D2R1RandomRate01)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 22, 0.1),
              12540334761272333784ull);
    EXPECT_EQ(hashCounters(noc), 4930803823207013150ull);
}

TEST(GoldenStats, FastTrack8D2R1RandomRate1)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 23, 1.0),
              18013994756933619533ull);
    EXPECT_EQ(hashCounters(noc), 14492772209335656436ull);
}

TEST(GoldenStats, Hoplite8RandomRate1)
{
    Network noc(NocConfig::hoplite(8));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 24, 1.0),
              13675002397351456228ull);
    EXPECT_EQ(hashCounters(noc), 2160571293944836642ull);
}

TEST(GoldenStats, FastTrack8D2R1LocalRate01)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::local, 25, 0.1),
              2571842207434517803ull);
    EXPECT_EQ(hashCounters(noc), 2507656607519816469ull);
}

TEST(GoldenStats, FastTrack8D2R1Local)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::local, 26),
              7636900414667454214ull);
    EXPECT_EQ(hashCounters(noc), 16246869957365275850ull);
}

TEST(GoldenStats, FastTrack8D2R1BitComplementRate01)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::bitComplement, 27, 0.1),
              1961072237549892257ull);
    EXPECT_EQ(hashCounters(noc), 16592406591017908952ull);
}

TEST(GoldenStats, MultiChannel8x2RandomRate1)
{
    // Multi-channel devices expose no offer mask: this pins the
    // injector's hasPendingOffer path under a deep backlog.
    MultiChannelNoc noc(NocConfig::hoplite(8), 2);
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 28, 1.0),
              11489421480199238474ull);
    EXPECT_EQ(hashCounters(noc.channel(0)), 3709569917576265562ull);
    EXPECT_EQ(hashCounters(noc.channel(1)), 12956357701994216383ull);
}

} // namespace
} // namespace fasttrack
