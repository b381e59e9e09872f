#include "sim/ftd_server.hpp"

#include <utility>

#include "common/parallel.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"

namespace fasttrack {

namespace {

net::ServerConfig
withSweepSchema(net::ServerConfig config)
{
    config.schemaVersion = kSweepCacheSchema;
    return config;
}

} // namespace

FtdServer::FtdServer(net::ServerConfig config)
    : server_(withSweepSchema(std::move(config)),
              [this](std::vector<net::Frame> &&batch) {
                  return handle(std::move(batch));
              })
{
}

bool
FtdServer::start(std::string &error)
{
    return server_.start(error);
}

void
FtdServer::stop()
{
    server_.stop();
}

std::uint16_t
FtdServer::boundPort() const
{
    return server_.boundPort();
}

FtdServer::Stats
FtdServer::stats() const
{
    Stats s;
    s.pointsServed = pointsServed_.load(std::memory_order_relaxed);
    s.cacheHits = cacheHits_.load(std::memory_order_relaxed);
    s.badRequests = badRequests_.load(std::memory_order_relaxed);
    s.slicesServed = slicesServed_.load(std::memory_order_relaxed);
    return s;
}

net::ServerStats
FtdServer::netStats() const
{
    return server_.stats();
}

void
FtdServer::reportTo(telemetry::MetricsRegistry &metrics) const
{
    const Stats s = stats();
    metrics.counter("ftd.points_served") = s.pointsServed;
    metrics.counter("ftd.cache_hits") = s.cacheHits;
    metrics.counter("ftd.bad_requests") = s.badRequests;
    metrics.counter("ftd.slices_served") = s.slicesServed;
    const net::ServerStats n = netStats();
    metrics.counter("ftd.net.sessions_accepted") = n.sessionsAccepted;
    metrics.counter("ftd.net.sessions_rejected") = n.sessionsRejected;
    metrics.counter("ftd.net.frames_in") = n.framesIn;
    metrics.counter("ftd.net.frames_out") = n.framesOut;
    metrics.counter("ftd.net.protocol_errors") = n.protocolErrors;
    metrics.counter("ftd.net.idle_timeouts") = n.idleTimeouts;
    metrics.counter("ftd.net.requests_served") = n.requestsServed;
    metrics.counter("ftd.net.injected_drops") = n.injectedDrops;
    sweepCache().reportTo(metrics);
    sched::WorkStealingPool::global().reportTo(metrics);
}

namespace {

/** The key the request's inputs hash to (ShardSliceRequest::key). */
std::uint64_t
derivedKey(const ShardSliceRequest &r)
{
    return r.kind == SnapshotKind::synthetic
               ? checkpointKey(r.config, r.channels, r.workload)
               : checkpointKey(r.config, r.channels, r.trace);
}

bool
wholeSyntheticRun(const ShardSliceRequest &r)
{
    return r.kind == SnapshotKind::synthetic && r.wholeRun();
}

/** Run one decoded request the cache pre-pass did not answer: a
 *  whole synthetic run through the sweep cache, like a local sweep
 *  point; anything else as a slice. Returns why the request is
 *  rejected, or nullptr with @p out filled. */
const char *
runRequest(const ShardSliceRequest &r, ShardSliceResult &out)
{
    if (!wholeSyntheticRun(r))
        return runSliceLocally(r, out);
    out.synth = cachedRunSynthetic(r.config, r.channels, r.workload,
                                   r.runMaxCycles);
    out.done = true;
    return nullptr;
}

} // namespace

std::vector<net::Frame>
FtdServer::handle(std::vector<net::Frame> batch)
{
    struct Item
    {
        ShardSliceRequest request;
        /** Why the request is rejected (nullptr: answer it). */
        const char *rejected = nullptr;
        ShardSliceResult result;
    };
    std::vector<Item> items(batch.size());

    // Decode + validate + key check + cache pre-pass. The pre-pass
    // both supplies a whole run's cache-hit flag and lets hits skip
    // the simulator entirely.
    sched::BlobCache &cache = sweepCache();
    const bool cacheOn = sweepCacheEnabled();
    std::vector<std::size_t> work;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Item &item = items[i];
        const ShardSliceRequest &r = item.request;
        if (!decodeShardSliceRequestPayload(batch[i].payload,
                                            item.request)) {
            item.rejected = "malformed or invalid run request";
            continue;
        }
        // Re-derive the key from the inputs that actually arrived: a
        // snapshot may only continue exactly this run, so a confused
        // (or hostile) client gets a typed rejection instead of a
        // silently wrong continuation.
        if (derivedKey(r) != r.key) {
            item.rejected = "run key mismatch";
            continue;
        }
        if (cacheOn && wholeSyntheticRun(r)) {
            const auto payload = cache.lookup(sweepKey(
                r.config, r.channels, r.workload, r.runMaxCycles));
            if (payload &&
                decodeSynthResult(*payload, item.result.synth)) {
                item.result.done = true;
                item.result.cacheHit = true;
                continue;
            }
        }
        work.push_back(i);
    }

    // Every miss and slice of the batch, whatever its config, channel
    // count or budget, runs as one bulk job on the pool. Pinned to
    // the local path: a handler must never re-enter remote dispatch,
    // even when this process also has remote endpoints configured
    // (in-process daemons in tests).
    sched::ensureGlobalPool();
    const std::vector<const char *> rejected = parallelMap(
        work,
        [&](std::size_t i) {
            return runRequest(items[i].request, items[i].result);
        },
        0, "ftd");
    for (std::size_t j = 0; j < work.size(); ++j)
        items[work[j]].rejected = rejected[j];

    // Answer in arrival order, then append the telemetry epoch.
    std::vector<net::Frame> responses;
    responses.reserve(items.size() + 1);
    for (std::size_t i = 0; i < items.size(); ++i) {
        const Item &item = items[i];
        if (item.rejected != nullptr) {
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            responses.push_back(net::makeErrorFrame(
                batch[i].requestId, net::kErrBadRequest, item.rejected));
            continue;
        }
        if (wholeSyntheticRun(item.request)) {
            pointsServed_.fetch_add(1, std::memory_order_relaxed);
            if (item.result.cacheHit)
                cacheHits_.fetch_add(1, std::memory_order_relaxed);
        } else {
            slicesServed_.fetch_add(1, std::memory_order_relaxed);
        }
        net::Frame frame;
        frame.type = net::MessageType::runResult;
        frame.requestId = batch[i].requestId;
        frame.payload = encodeShardSliceResultPayload(item.result);
        responses.push_back(std::move(frame));
    }

    telemetry::MetricsRegistry registry;
    reportTo(registry);
    registry.snapshot(0);
    net::Frame epoch;
    epoch.type = net::MessageType::metricsEpoch;
    epoch.payload =
        encodeMetricsPayload(registry.epochs().back().values);
    responses.push_back(std::move(epoch));
    return responses;
}

} // namespace fasttrack
