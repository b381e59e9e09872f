#include "sched/blob_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "sched/container.hpp"

namespace fasttrack::sched {

namespace {

constexpr std::uint32_t kMagic = 0x43525446u; // "FTRC" little-endian

std::string
hexKey(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

bool
isEntryFile(const std::filesystem::directory_entry &entry)
{
    if (!entry.is_regular_file())
        return false;
    const std::string name = entry.path().filename().string();
    return name.size() == 24 && name.rfind("ft-", 0) == 0 &&
           name.compare(name.size() - 5, 5, ".ftrc") == 0;
}

} // namespace

BlobCache::BlobCache(std::string name, std::uint32_t schemaVersion)
    : name_(std::move(name)), schema_(schemaVersion)
{
}

void
BlobCache::setDir(std::string dir)
{
    MutexLock lk(mutex_);
    if (dir != dir_) {
        dir_ = std::move(dir);
        diskScanned_ = false;
        diskBytes_ = 0;
    }
}

std::string
BlobCache::dir() const
{
    MutexLock lk(mutex_);
    return dir_;
}

void
BlobCache::setMaxDiskBytes(std::uint64_t max_bytes)
{
    MutexLock lk(mutex_);
    maxDiskBytes_ = max_bytes;
}

std::uint64_t
BlobCache::maxDiskBytes() const
{
    MutexLock lk(mutex_);
    return maxDiskBytes_;
}

std::uint64_t
BlobCache::diskBytes() const
{
    MutexLock lk(mutex_);
    if (dir_.empty())
        return 0;
    ensureDiskScanned();
    return diskBytes_;
}

void
BlobCache::ensureDiskScanned() const
{
    if (diskScanned_ || dir_.empty())
        return;
    diskScanned_ = true;
    diskBytes_ = 0;
    // A not-yet-created directory iterates as empty (ec set).
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!isEntryFile(entry))
            continue;
        std::error_code sec;
        const auto size = entry.file_size(sec);
        if (!sec)
            diskBytes_ += size;
    }
}

std::string
BlobCache::entryPath(std::uint64_t key) const
{
    MutexLock lk(mutex_);
    if (dir_.empty())
        return {};
    return dir_ + "/ft-" + hexKey(key) + ".ftrc";
}

std::optional<std::vector<std::uint8_t>>
BlobCache::lookup(std::uint64_t key)
{
    {
        MutexLock lk(mutex_);
        auto it = mem_.find(key);
        if (it != mem_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    if (auto fromDisk = loadDiskEntry(key)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        diskHits_.fetch_add(1, std::memory_order_relaxed);
        MutexLock lk(mutex_);
        mem_.emplace(key, *fromDisk);
        return fromDisk;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
}

void
BlobCache::store(std::uint64_t key, std::vector<std::uint8_t> payload)
{
    stores_.fetch_add(1, std::memory_order_relaxed);
    std::string dir;
    {
        MutexLock lk(mutex_);
        dir = dir_;
        mem_[key] = payload;
    }
    if (!dir.empty())
        writeDiskEntry(key, payload);
}

void
BlobCache::clearMemory()
{
    MutexLock lk(mutex_);
    mem_.clear();
}

std::optional<std::vector<std::uint8_t>>
BlobCache::loadDiskEntry(std::uint64_t key)
{
    const std::string path = entryPath(key);
    std::vector<std::uint8_t> bytes;
    if (path.empty() || !readFileBytes(path, bytes))
        return std::nullopt; // absent: a plain miss, not corruption
    std::vector<std::uint8_t> payload;
    if (openContainer(bytes, {kMagic, schema_, key}, payload) !=
        ContainerStatus::ok) {
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    return payload;
}

void
BlobCache::writeDiskEntry(std::uint64_t key,
                          const std::vector<std::uint8_t> &payload)
{
    const std::string path = entryPath(key);
    {
        // Size the store before adding to it: a scan after the write
        // would count the new entry twice.
        MutexLock lk(mutex_);
        ensureDiskScanned();
    }
    // An unwritable store degrades the cache to memory-only.
    if (path.empty() ||
        !writeFileAtomically(path,
                             sealContainer({kMagic, schema_, key},
                                           payload)))
        return;
    diskWrites_.fetch_add(1, std::memory_order_relaxed);

    bool over_cap = false;
    {
        MutexLock lk(mutex_);
        diskBytes_ += kContainerOverheadBytes + payload.size();
        over_cap = maxDiskBytes_ != 0 && diskBytes_ > maxDiskBytes_;
    }
    if (over_cap)
        evictOverCap(path);
}

void
BlobCache::evictOverCap(const std::string &keep_path)
{
    // Snapshot the store (oldest write first), then delete under the
    // mutex so two overflowing writers do not double-count.
    std::string dir;
    std::uint64_t cap = 0;
    {
        MutexLock lk(mutex_);
        dir = dir_;
        cap = maxDiskBytes_;
    }
    if (dir.empty() || cap == 0)
        return;

    struct DiskEntry
    {
        std::filesystem::path path;
        std::uint64_t size = 0;
        std::filesystem::file_time_type mtime;
    };
    std::vector<DiskEntry> entries;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!isEntryFile(entry))
            continue;
        std::error_code sec;
        DiskEntry de;
        de.path = entry.path();
        de.size = entry.file_size(sec);
        if (sec)
            continue;
        de.mtime = entry.last_write_time(sec);
        if (sec)
            continue;
        entries.push_back(std::move(de));
    }
    if (ec)
        return;
    std::sort(entries.begin(), entries.end(),
              [](const DiskEntry &a, const DiskEntry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path; // tie-break: stable order
              });

    MutexLock lk(mutex_);
    // Recompute from the snapshot: sizes may have drifted while
    // unlocked (another process sharing the store).
    std::uint64_t total = 0;
    for (const DiskEntry &entry : entries)
        total += entry.size;
    diskBytes_ = total;
    for (const DiskEntry &entry : entries) {
        if (diskBytes_ <= maxDiskBytes_)
            break;
        if (entry.path == keep_path)
            continue; // never evict the entry just written
        std::error_code rec;
        if (std::filesystem::remove(entry.path, rec) && !rec) {
            diskBytes_ -= entry.size;
            evictions_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

BlobCache::Stats
BlobCache::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.diskHits = diskHits_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.diskWrites = diskWrites_.load(std::memory_order_relaxed);
    s.corrupt = corrupt_.load(std::memory_order_relaxed);
    s.bypasses = bypasses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    return s;
}

void
BlobCache::reportTo(telemetry::MetricsRegistry &metrics) const
{
    const Stats s = stats();
    metrics.counter(name_ + ".hits") = s.hits;
    metrics.counter(name_ + ".misses") = s.misses;
    metrics.counter(name_ + ".disk_hits") = s.diskHits;
    metrics.counter(name_ + ".stores") = s.stores;
    metrics.counter(name_ + ".disk_writes") = s.diskWrites;
    metrics.counter(name_ + ".corrupt") = s.corrupt;
    metrics.counter(name_ + ".bypasses") = s.bypasses;
    metrics.counter(name_ + ".evictions") = s.evictions;
    metrics.gauge(name_ + ".disk_bytes") =
        static_cast<double>(diskBytes());
}

} // namespace fasttrack::sched
