/**
 * @file
 * FNV-1a 64-bit streaming hasher used for content keys and payload
 * self-checks (sweep cache, blob cache, wire frames).
 *
 * add(word) feeds the word's bytes in explicit little-endian order,
 * so a hash computed from the same logical values is identical on
 * every host — the property that lets content-addressed cache keys
 * and frame checksums travel between machines (docs/distributed.md).
 */

#ifndef FT_COMMON_FNV1A_HPP
#define FT_COMMON_FNV1A_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace fasttrack {

class Fnv1a
{
  public:
    void addByte(std::uint8_t b)
    {
        hash_ ^= b;
        hash_ *= 0x100000001b3ull;
    }
    void addBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < n; ++i)
            addByte(p[i]);
    }
    /** Feed @p word as eight little-endian bytes (host-independent). */
    void add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i)
            addByte(static_cast<std::uint8_t>(word >> (8 * i)));
    }
    /** Feed one struct field as a u64 word: an integer or enum by
     *  value, a bool as 0/1, a double by its bit pattern. */
    template <typename T>
    void addField(T field)
    {
        if constexpr (std::is_floating_point_v<T>)
            add(std::bit_cast<std::uint64_t>(field));
        else
            add(static_cast<std::uint64_t>(field));
    }
    /** Feed every field a forEachField visitor lists, in its order. */
    template <typename Fields>
    void addFields(const Fields &fields)
    {
        Fields::forEachField(fields,
                             [this](auto field) { addField(field); });
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace fasttrack

#endif // FT_COMMON_FNV1A_HPP
