#include "common/rng.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace fasttrack {

Rng::Rng(std::uint64_t seed)
{
    // Same expansion stream as the classic stateful splitmix64 loop:
    // word i = splitmix64(seed + i * gamma).
    std::uint64_t sm = seed;
    for (auto &word : s_) {
        word = splitmix64(sm);
        sm += 0x9e3779b97f4a7c15ull;
    }
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    FT_ASSERT(bound > 0, "nextBelow(0)");
    // Lemire-style rejection for unbiased draws. Callers with a fixed
    // bound on a hot path can precompute this threshold and an exact
    // reciprocal modulus (see DestinationGenerator) to draw the same
    // stream without the two hardware divides.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    FT_ASSERT(lo <= hi, "nextRange(", lo, ",", hi, ")");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

std::uint64_t
Rng::bernoulliThreshold(double p)
{
    constexpr std::uint64_t kAlways = std::uint64_t{1} << 53;
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return kAlways;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

} // namespace fasttrack
