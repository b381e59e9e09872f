/**
 * @file
 * Unit tests for the deterministic xoshiro256** RNG wrapper.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace fasttrack {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull,
                                (1ull << 40)}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowOneIsAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextRangeInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, UniformityCoarseChiSquare)
{
    // 16 buckets x 16k draws: each bucket should be within 10% of the
    // expected count for a healthy generator.
    Rng rng(17);
    constexpr int kBuckets = 16;
    constexpr int kDraws = 1 << 16;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kDraws; ++i)
        ++counts[rng.nextBelow(kBuckets)];
    const double expect = static_cast<double>(kDraws) / kBuckets;
    for (int c : counts) {
        EXPECT_NEAR(c, expect, expect * 0.10);
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(19);
    for (double p : {0.05, 0.3, 0.9}) {
        int hits = 0;
        constexpr int kDraws = 20000;
        for (int i = 0; i < kDraws; ++i)
            hits += rng.nextBool(p);
        EXPECT_NEAR(static_cast<double>(hits) / kDraws, p, 0.02);
    }
}

TEST(Rng, BernoulliThresholdIsExact)
{
    // nextBernoulli(T) holds for the 53-bit draw k iff k < T; that
    // must agree with nextDouble() < p, i.e. k * 2^-53 < p, on both
    // sides of the threshold.
    constexpr std::uint64_t kDraws53 = std::uint64_t{1} << 53;
    const double below_one = std::nextafter(1.0, 0.0);
    for (double p : {std::ldexp(1.0, -53), 0.01, 0.1, 0.35, below_one,
                     1.0}) {
        const std::uint64_t t = Rng::bernoulliThreshold(p);
        ASSERT_GT(t, 0u) << p;
        ASSERT_LE(t, kDraws53) << p;
        for (std::uint64_t k : {t - 1, t, t + 1}) {
            if (k >= kDraws53)
                continue; // not a possible 53-bit draw
            EXPECT_EQ(k < t, std::ldexp(static_cast<double>(k), -53) < p)
                << "p=" << p << " k=" << k;
        }
    }
    EXPECT_EQ(Rng::bernoulliThreshold(1.0), kDraws53);
    EXPECT_EQ(Rng::bernoulliThreshold(below_one), kDraws53 - 1);
    EXPECT_EQ(Rng::bernoulliThreshold(std::ldexp(1.0, -53)), 1u);
    EXPECT_EQ(Rng::bernoulliThreshold(0.0), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(-0.5), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(
                  std::numeric_limits<double>::quiet_NaN()),
              0u);
    EXPECT_EQ(Rng::bernoulliThreshold(2.0), kDraws53);
}

TEST(Rng, NextBernoulliMatchesNextBoolStream)
{
    for (double p : {std::ldexp(1.0, -53), 0.01, 0.1, 0.35,
                     std::nextafter(1.0, 0.0), 1.0}) {
        const std::uint64_t t = Rng::bernoulliThreshold(p);
        Rng a(29), b(29);
        int mismatches = 0;
        for (int i = 0; i < 1000000; ++i)
            mismatches += a.nextBernoulli(t) != b.nextBool(p);
        EXPECT_EQ(mismatches, 0) << "p=" << p;
        EXPECT_EQ(a.state(), b.state()) << "p=" << p;
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(23);
    Rng b = a.split();
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i) {
        seen.insert(a.next());
        seen.insert(b.next());
    }
    // All 200 draws distinct: streams do not mirror each other.
    EXPECT_EQ(seen.size(), 200u);
}

} // namespace
} // namespace fasttrack
