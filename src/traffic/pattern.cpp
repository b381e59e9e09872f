#include "traffic/pattern.hpp"

#include <bit>
#include <vector>

#include "common/logging.hpp"

namespace fasttrack {

const char *
toString(TrafficPattern pattern)
{
    switch (pattern) {
      case TrafficPattern::random: return "RANDOM";
      case TrafficPattern::local: return "LOCAL";
      case TrafficPattern::bitComplement: return "BITCOMPL";
      case TrafficPattern::transpose: return "TRANSPOSE";
    }
    return "?";
}

TrafficPattern
patternFromString(const std::string &name)
{
    if (name == "RANDOM" || name == "random")
        return TrafficPattern::random;
    if (name == "LOCAL" || name == "local")
        return TrafficPattern::local;
    if (name == "BITCOMPL" || name == "bitcompl")
        return TrafficPattern::bitComplement;
    if (name == "TRANSPOSE" || name == "transpose")
        return TrafficPattern::transpose;
    FT_FATAL("unknown traffic pattern: ", name);
}

const char *
patternViolation(TrafficPattern pattern, std::uint32_t n,
                 std::uint32_t local_radius)
{
    if (pattern == TrafficPattern::bitComplement &&
        !std::has_single_bit(std::uint64_t{n} * n))
        return "BITCOMPL needs a power-of-two PE count";
    if (pattern == TrafficPattern::local && local_radius < 1)
        return "LOCAL radius must be >= 1";
    return nullptr;
}

DestinationGenerator::DestinationGenerator(TrafficPattern pattern,
                                           std::uint32_t n,
                                           std::uint32_t local_radius)
    : pattern_(pattern), n_(n), localRadius_(local_radius)
{
    FT_ASSERT(n_ >= 2, "torus side must be >= 2");
    if (const char *why = patternViolation(pattern_, n_, localRadius_))
        FT_FATAL(why, ": N=", n_, " radius=", localRadius_);
    if (pattern_ == TrafficPattern::random) {
        const std::uint64_t bound = std::uint64_t{n_} * n_ - 1;
        randomThreshold_ = (0 - bound) % bound;
        randomMod_.init(bound);
    }
}

} // namespace fasttrack
