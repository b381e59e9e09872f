/**
 * @file
 * User-facing configuration of one NoC instance: the FT(N^2, D, R)
 * topology parameters, the router variant, and routing policy knobs.
 */

#ifndef FT_NOC_CONFIG_HPP
#define FT_NOC_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <string>

#include "fpga/area_model.hpp"

namespace fasttrack {

/** Router/switching family of the whole NoC. */
enum class NocVariant
{
    /** Baseline bufferless deflection torus (Kapre & Gray). */
    hoplite,
    /** FastTrack with full routers: lane changes from any port. */
    ftFull,
    /** FastTrack lite: express entry only at PE injection, no lane
     *  crossing afterwards. */
    ftInject,
};

const char *toString(NocVariant variant);

/**
 * Configuration of an FT(N^2, D, R) NoC.
 *
 * Constraints checked by validate(): N >= 2; for FastTrack variants
 * 1 <= D <= N/2, R in [1, D] with R | D, and R | N when R > 1 (so the
 * express braid stays balanced across the torus wraparound); the
 * inject variant further needs D | N so deflected express packets
 * stay aligned with the express network (Section IV-D).
 */
struct NocConfig
{
    /** Side of the N x N torus. */
    std::uint32_t n = 8;
    /** Express link length in hops; ignored for hoplite. */
    std::uint32_t d = 2;
    /** Depopulation factor (1 = fully populated). */
    std::uint32_t r = 1;
    /** Switching family. */
    NocVariant variant = NocVariant::hoplite;
    /**
     * Allow W_EX -> S_EX turns inside full routers (stay on the fast
     * lanes through the corner). Ablation knob; on by default.
     */
    bool allowExpressTurn = true;
    /**
     * Allow short->express lane upgrades from the W/N ports of full
     * routers (Fig 8's "upgrade later"). Ablation knob; on by default.
     */
    bool allowUpgrade = true;
    /**
     * Use the paper's turn-priority livelock rule (W->S turns beat ring
     * traffic). Disabling reverts to naive straight-first priority and
     * exists only for the livelock ablation bench.
     */
    bool turnPriority = true;
    /**
     * Extra pipeline registers on every short link (Section V: "we
     * can also insert a configurable number of additional registers
     * along the NoC links if an even faster frequency is desired";
     * Section VII's HyperFlex discussion). Link latency becomes
     * 1 + stages cycles.
     */
    std::uint32_t shortLinkStages = 0;
    /** Extra pipeline registers on every express link. */
    std::uint32_t expressLinkStages = 0;

    bool isFastTrack() const { return variant != NocVariant::hoplite; }
    std::uint32_t pes() const { return n * n; }

    /** The first constraint (see above) this combination breaks, or
     *  nullptr when it is valid. The one rule list: validate() aborts
     *  on it, the ftd wire decoder rejects on it. */
    const char *violation() const;

    /** Abort with a user-facing error if the combination is invalid. */
    void validate() const;

    /**
     * The one field list: calls @p visit on every field, in key and
     * wire order. Content keys (sweepKey, checkpointKey) and the ftd
     * wire codec derive from it, so a new field is hashed and sent
     * the moment it is listed here (and the static_assert below
     * fails until it is). @p Self is NocConfig or const NocConfig.
     */
    template <typename Self, typename Visit>
    static constexpr void forEachField(Self &self, Visit &&visit)
    {
        visit(self.n);
        visit(self.d);
        visit(self.r);
        visit(self.variant);
        visit(self.allowExpressTurn);
        visit(self.allowUpgrade);
        visit(self.turnPriority);
        visit(self.shortLinkStages);
        visit(self.expressLinkStages);
    }

    /** Express-link length as seen by the cost models (0 = none). */
    std::uint32_t costD() const { return isFastTrack() ? d : 0; }

    /** Implementation spec for the FPGA cost models. */
    NocSpec toSpec(std::uint32_t width = 256,
                   std::uint32_t channels = 1) const;

    std::string describe() const;

    /** Baseline Hoplite of side @p n. */
    static NocConfig hoplite(std::uint32_t n);
    /** FastTrack FT(n^2, d, r). */
    static NocConfig fastTrack(std::uint32_t n, std::uint32_t d,
                               std::uint32_t r,
                               NocVariant variant = NocVariant::ftFull);
};

namespace detail {

/** Fields forEachField visits; the structured binding fails to
 *  compile as soon as NocConfig's member count differs from it. */
consteval std::size_t
nocConfigFieldCount()
{
    NocConfig config{};
    [[maybe_unused]] auto &[n, d, r, variant, turn, upgrade, priority,
                            short_stages, express_stages] = config;
    std::size_t fields = 0;
    NocConfig::forEachField(config, [&fields](auto &) { ++fields; });
    return fields;
}

} // namespace detail

static_assert(detail::nocConfigFieldCount() == 9,
              "NocConfig::forEachField must list every field");

} // namespace fasttrack

#endif // FT_NOC_CONFIG_HPP
