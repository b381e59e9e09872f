#include "sched/container.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

#include "common/fnv1a.hpp"
#include "net/wire.hpp"

namespace fasttrack::sched {

const char *
toString(ContainerStatus status)
{
    switch (status) {
    case ContainerStatus::ok:
        return "ok";
    case ContainerStatus::ioError:
        return "io-error";
    case ContainerStatus::truncated:
        return "truncated";
    case ContainerStatus::badMagic:
        return "bad-magic";
    case ContainerStatus::badSchema:
        return "bad-schema";
    case ContainerStatus::badKey:
        return "bad-key";
    case ContainerStatus::badChecksum:
        return "bad-checksum";
    case ContainerStatus::malformed:
        return "malformed";
    }
    return "unknown";
}

std::vector<std::uint8_t>
sealContainer(const ContainerId &id,
              const std::vector<std::uint8_t> &payload)
{
    Fnv1a check;
    check.addBytes(payload.data(), payload.size());
    net::WireWriter w;
    w.u32(id.magic);
    w.u32(id.schema);
    w.u64(id.key);
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    w.u64(check.value());
    return w.take();
}

ContainerStatus
openContainer(const std::vector<std::uint8_t> &bytes,
              const ContainerId &id, std::vector<std::uint8_t> &payload)
{
    net::WireReader r(bytes);
    std::uint32_t magic = 0, schema = 0;
    std::uint64_t key = 0, payload_bytes = 0;
    if (!r.u32(magic))
        return ContainerStatus::truncated;
    if (magic != id.magic)
        return ContainerStatus::badMagic;
    if (!r.u32(schema))
        return ContainerStatus::truncated;
    if (schema != id.schema)
        return ContainerStatus::badSchema;
    if (!r.u64(key))
        return ContainerStatus::truncated;
    if (key != id.key)
        return ContainerStatus::badKey;
    if (!r.u64(payload_bytes))
        return ContainerStatus::truncated;
    // Compare without adding to the forged length (no wraparound).
    if (r.remaining() < 8 || r.remaining() - 8 < payload_bytes)
        return ContainerStatus::truncated;
    if (r.remaining() - 8 != payload_bytes)
        return ContainerStatus::malformed; // trailing garbage

    std::vector<std::uint8_t> body(static_cast<std::size_t>(payload_bytes));
    std::uint64_t stored_check = 0;
    if (!r.bytes(body.data(), body.size()) || !r.u64(stored_check))
        return ContainerStatus::truncated;
    Fnv1a check;
    check.addBytes(body.data(), body.size());
    if (check.value() != stored_check)
        return ContainerStatus::badChecksum;
    payload = std::move(body);
    return ContainerStatus::ok;
}

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    out.assign(std::istreambuf_iterator<char>(is),
               std::istreambuf_iterator<char>());
    return !is.bad();
}

bool
writeFileAtomically(const std::string &path,
                    const std::vector<std::uint8_t> &bytes)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path parent = fs::path(path).parent_path();
    if (!parent.empty())
        fs::create_directories(parent, ec);
    if (ec)
        return false;
    // Per-process temp name: two processes sharing a store cannot
    // interleave their writes.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
        if (!os) {
            os.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace fasttrack::sched
