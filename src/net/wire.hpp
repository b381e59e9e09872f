/**
 * @file
 * Endian-stable byte codec shared by every on-the-wire and on-disk
 * serialization in the tree (frame payloads, sweep-cache entries,
 * blob-cache headers).
 *
 * Every multi-byte field is encoded as explicit little-endian via
 * byte shifts — never a struct/word memcpy — so the bytes a writer
 * produces are identical on every host, and a content key or cached
 * blob written on one machine validates on another. This is the
 * portability contract the distributed sweep fabric
 * (docs/distributed.md) relies on for cross-node cache sharing.
 *
 * WireWriter appends; WireReader bounds-checks every read and
 * reports success, so truncated or hostile input degrades to a clean
 * decode failure instead of UB.
 */

#ifndef FT_NET_WIRE_HPP
#define FT_NET_WIRE_HPP

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace fasttrack::net {

/** Append-only little-endian byte writer. */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }
    void u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }
    void u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        bytes_.insert(bytes_.end(), b, b + n);
    }
    /** u32 length prefix + raw bytes. */
    void str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    std::size_t size() const { return bytes_.size(); }
    const std::vector<std::uint8_t> &buffer() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian reader; every getter reports
 *  success. The reader does not own the bytes. */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit WireReader(const std::vector<std::uint8_t> &bytes)
        : WireReader(bytes.data(), bytes.size())
    {
    }

    bool u8(std::uint8_t &v)
    {
        if (size_ - pos_ < 1)
            return false;
        v = data_[pos_++];
        return true;
    }
    bool u16(std::uint16_t &v)
    {
        std::uint8_t lo = 0, hi = 0;
        if (!u8(lo) || !u8(hi))
            return false;
        v = static_cast<std::uint16_t>(
            static_cast<std::uint16_t>(lo) |
            static_cast<std::uint16_t>(static_cast<std::uint16_t>(hi)
                                       << 8));
        return true;
    }
    bool u32(std::uint32_t &v)
    {
        std::uint16_t lo = 0, hi = 0;
        if (!u16(lo) || !u16(hi))
            return false;
        v = static_cast<std::uint32_t>(lo) |
            (static_cast<std::uint32_t>(hi) << 16);
        return true;
    }
    bool u64(std::uint64_t &v)
    {
        std::uint32_t lo = 0, hi = 0;
        if (!u32(lo) || !u32(hi))
            return false;
        v = static_cast<std::uint64_t>(lo) |
            (static_cast<std::uint64_t>(hi) << 32);
        return true;
    }
    bool f64(double &v)
    {
        std::uint64_t word = 0;
        if (!u64(word))
            return false;
        v = std::bit_cast<double>(word);
        return true;
    }
    /** Read a u32-length-prefixed string; rejects lengths past the
     *  end of the buffer before allocating. */
    bool str(std::string &out)
    {
        std::uint32_t len = 0;
        if (!u32(len) || size_ - pos_ < len)
            return false;
        out.assign(reinterpret_cast<const char *>(data_ + pos_), len);
        pos_ += len;
        return true;
    }
    bool bytes(void *p, std::size_t n)
    {
        if (size_ - pos_ < n)
            return false;
        if (n != 0) // an empty destination may be null
            std::memcpy(p, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace fasttrack::net

#endif // FT_NET_WIRE_HPP
