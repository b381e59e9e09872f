#include "noc/config.hpp"

#include "common/logging.hpp"

namespace fasttrack {

const char *
toString(NocVariant variant)
{
    switch (variant) {
      case NocVariant::hoplite: return "hoplite";
      case NocVariant::ftFull: return "ft-full";
      case NocVariant::ftInject: return "ft-inject";
    }
    return "?";
}

const char *
NocConfig::violation() const
{
    if (n < 2)
        return "NoC side must be >= 2";
    if (shortLinkStages > 8 || expressLinkStages > 8)
        return "more than 8 extra link stages is not meaningful";
    if (!isFastTrack())
        return nullptr;
    if (d < 1 || d > n / 2)
        return "express length D must be in [1, N/2]";
    if (r < 1 || r > d)
        return "depopulation R must be in [1, D]";
    if (d % r != 0)
        return "R must divide D so express links chain through "
               "express-capable routers";
    if (r > 1 && n % r != 0)
        return "depopulated NoCs need R | N so the express braid "
               "stays balanced across the torus wraparound";
    if (variant == NocVariant::ftInject && n % d != 0)
        return "inject-only FastTrack needs D | N so deflected "
               "express packets realign";
    return nullptr;
}

void
NocConfig::validate() const
{
    if (const char *why = violation())
        FT_FATAL(why, ": N=", n, " D=", d, " R=", r);
}

NocSpec
NocConfig::toSpec(std::uint32_t width, std::uint32_t channels) const
{
    NocSpec spec;
    spec.n = n;
    spec.width = width;
    spec.d = costD();
    spec.r = r;
    spec.injectOnly = variant == NocVariant::ftInject;
    spec.channels = channels;
    spec.shortLinkStages = shortLinkStages;
    spec.expressLinkStages = expressLinkStages;
    return spec;
}

std::string
NocConfig::describe() const
{
    if (!isFastTrack())
        return "Hoplite " + std::to_string(n) + "x" + std::to_string(n);
    std::string name =
        variant == NocVariant::ftInject ? "FTlite(" : "FT(";
    return name + std::to_string(pes()) + "," + std::to_string(d) + "," +
           std::to_string(r) + ")";
}

NocConfig
NocConfig::hoplite(std::uint32_t n)
{
    NocConfig cfg;
    cfg.n = n;
    cfg.variant = NocVariant::hoplite;
    cfg.validate();
    return cfg;
}

NocConfig
NocConfig::fastTrack(std::uint32_t n, std::uint32_t d, std::uint32_t r,
                     NocVariant variant)
{
    NocConfig cfg;
    cfg.n = n;
    cfg.d = d;
    cfg.r = r;
    cfg.variant = variant;
    cfg.validate();
    return cfg;
}

} // namespace fasttrack
