/**
 * @file
 * Tests for the open-loop steady-state measurement protocol.
 */

#include <gtest/gtest.h>

#include "sim/simulation.hpp"
#include "sim/steady_state.hpp"

namespace fasttrack {
namespace {

TEST(SteadyState, BelowSaturationThroughputTracksOffered)
{
    auto noc = makeNoc(NocConfig::hoplite(8), 1);
    SteadyStateConfig cfg;
    cfg.injectionRate = 0.05;
    const SteadyStateResult res = measureSteadyState(*noc, cfg);
    EXPECT_FALSE(res.saturated);
    EXPECT_NEAR(res.throughput, 0.05, 0.006);
    EXPECT_GT(res.avgLatency, 4.0);
    EXPECT_LT(res.avgLatency, 20.0);
}

TEST(SteadyState, SaturationFlagAndPlateau)
{
    auto noc = makeNoc(NocConfig::hoplite(8), 1);
    SteadyStateConfig cfg;
    cfg.injectionRate = 1.0;
    const SteadyStateResult res = measureSteadyState(*noc, cfg);
    EXPECT_TRUE(res.saturated);
    // The window estimate of Hoplite saturation matches the closed-
    // workload estimate used everywhere else.
    EXPECT_NEAR(res.throughput, 0.11, 0.02);
}

TEST(SteadyState, AgreesWithClosedRunsAtSaturation)
{
    auto noc = makeNoc(NocConfig::fastTrack(8, 2, 1), 1);
    SteadyStateConfig cfg;
    cfg.injectionRate = 1.0;
    const SteadyStateResult open = measureSteadyState(*noc, cfg);

    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 1.0;
    workload.packetsPerPe = 512;
    const SynthResult closed =
        runSynthetic(NocConfig::fastTrack(8, 2, 1), 1, workload);

    EXPECT_NEAR(open.throughput, closed.sustainedRate(),
                closed.sustainedRate() * 0.10);
}

TEST(SteadyState, ResultsArePinned)
{
    // Exact results at fixed seeds, below and above saturation and
    // with a LOCAL pattern (destinations drawn through nextBelow), so
    // any change to the per-node Bernoulli draw or the draw order
    // shows up here.
    struct Case
    {
        TrafficPattern pattern;
        double rate;
        std::uint64_t created;
        std::uint64_t delivered;
        double avgLatency;
    };
    const Case cases[] = {
        {TrafficPattern::random, 0.1, 12934, 12902, 4.6355342508118227},
        {TrafficPattern::local, 0.3, 38624, 38591, 2.3480737365368252},
        {TrafficPattern::random, 1.0, 42449, 38157, 202.00197884520034},
    };
    for (const Case &c : cases) {
        auto noc = makeNoc(NocConfig::fastTrack(8, 2, 1), 1);
        SteadyStateConfig cfg;
        cfg.pattern = c.pattern;
        cfg.injectionRate = c.rate;
        cfg.warmupCycles = 500;
        cfg.measureCycles = 2000;
        cfg.seed = 31;
        const SteadyStateResult res = measureSteadyState(*noc, cfg);
        EXPECT_EQ(res.windowCreated, c.created) << c.rate;
        EXPECT_EQ(res.windowDelivered, c.delivered) << c.rate;
        EXPECT_EQ(res.avgLatency, c.avgLatency) << c.rate;
    }
}

TEST(SteadyState, WindowAccountingConsistent)
{
    auto noc = makeNoc(NocConfig::hoplite(4), 1);
    SteadyStateConfig cfg;
    cfg.injectionRate = 0.2;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 2000;
    const SteadyStateResult res = measureSteadyState(*noc, cfg);
    EXPECT_GT(res.windowCreated, 0u);
    // Below saturation nearly everything created in the window also
    // delivers in it.
    EXPECT_GE(res.windowDelivered + res.windowCreated / 10,
              res.windowCreated);
}

TEST(SteadyStateDeathTest, RequiresFreshDevice)
{
    auto noc = makeNoc(NocConfig::hoplite(4), 1);
    noc->step();
    SteadyStateConfig cfg;
    EXPECT_DEATH(measureSteadyState(*noc, cfg), "fresh device");
}

} // namespace
} // namespace fasttrack
