/**
 * @file
 * The one checksummed container of the on-disk stores: the sweep
 * result cache's FTRC entries (sched/blob_cache.hpp) and the FTCP
 * snapshot files (sim/checkpoint.hpp) share this layout, every field
 * explicit little-endian (net/wire.hpp):
 *
 *   u32 magic   u32 schemaVersion   u64 key
 *   u64 payloadBytes   payload...   u64 fnv1a(payload)
 *
 * openContainer re-validates every field and reports the first one
 * that fails as a typed status; nothing is trusted on a partial
 * match. Files are written through a per-process temp file renamed
 * into place, so a concurrent reader never observes a half-written
 * one. (The FTNP frame trailer hashes header and payload while
 * streaming, so frames keep their own layout: net/frame.hpp.)
 */

#ifndef FT_SCHED_CONTAINER_HPP
#define FT_SCHED_CONTAINER_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fasttrack::sched {

/** Typed verdict of opening a container. */
enum class ContainerStatus
{
    ok,
    /** File missing or unreadable. */
    ioError,
    /** Shorter than the header + declared payload + trailer. */
    truncated,
    badMagic,
    badSchema,
    /** Sealed for different inputs. */
    badKey,
    /** Payload self-check hash mismatch (corruption). */
    badChecksum,
    /** Container validated but the bytes do not parse (trailing
     *  garbage here; callers also use it for a payload that fails to
     *  decode). */
    malformed,
};

const char *toString(ContainerStatus status);

/** What a container must carry to open: its family's magic and
 *  schema, and the content key of the inputs it was sealed for. */
struct ContainerId
{
    std::uint32_t magic = 0;
    std::uint32_t schema = 0;
    std::uint64_t key = 0;
};

/** Header plus trailer bytes around the payload. */
inline constexpr std::size_t kContainerOverheadBytes = 32;

/** Wrap @p payload in the container layout. */
std::vector<std::uint8_t> sealContainer(const ContainerId &id,
                                        const std::vector<std::uint8_t> &payload);

/** Validate @p bytes against @p id; on ok, @p payload holds the
 *  payload. Hostile-input safe: the declared length is checked
 *  against the bytes present before anything is copied. */
ContainerStatus openContainer(const std::vector<std::uint8_t> &bytes,
                              const ContainerId &id,
                              std::vector<std::uint8_t> &payload);

/** Read the whole of @p path; false when it is missing or
 *  unreadable. */
bool readFileBytes(const std::string &path,
                   std::vector<std::uint8_t> &out);

/** Write @p bytes to @p path (parent directories created) through a
 *  per-process temp file renamed into place; false on any failure,
 *  with the temp file removed. */
bool writeFileAtomically(const std::string &path,
                         const std::vector<std::uint8_t> &bytes);

} // namespace fasttrack::sched

#endif // FT_SCHED_CONTAINER_HPP
