/**
 * @file
 * The ftd daemon's run service: a net::FrameServer whose one handler
 * answers runRequest messages (ShardSliceRequest, sim/remote.hpp)
 * with runResult messages (ShardSliceResult).
 *
 * Each drained batch is answered in arrival order — one runResult
 * (or error) message per request — followed by exactly one
 * metricsEpoch frame carrying the daemon's current telemetry
 * (sweep-cache, pool and ftd counters), so clients can aggregate
 * fleet health without a separate monitoring channel.
 *
 * Requests are validated before they touch the simulator: a message
 * that decodes but carries an invalid config, workload or trace, or
 * a key that does not match its inputs, gets a kErrBadRequest error
 * frame, never a daemon abort. Two kinds of request share the batch:
 *   - a sweep point, a whole synthetic run with no snapshot: a warm
 *     daemon answers it straight from its blob cache, flagged via
 *     the result's cacheHit bit;
 *   - a temporal-shard slice of a long run (docs/distributed.md,
 *     "Temporal sharding"): the daemon resumes from the embedded
 *     trimmed snapshot, advances sliceCycles, and answers with the
 *     slice's stats plus the next trimmed snapshot — statelessly, so
 *     any daemon of the fleet can serve any slice.
 * The batch's cache misses and slices, whatever their config, run
 * together as one bulk job on the work-stealing pool.
 */

#ifndef FT_SIM_FTD_SERVER_HPP
#define FT_SIM_FTD_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "telemetry/metrics.hpp"

namespace fasttrack {

class FtdServer
{
  public:
    /** @p config.schemaVersion is overwritten with the sweep-cache
     *  schema: a daemon always speaks the schema it was built with. */
    explicit FtdServer(net::ServerConfig config = {});

    /** Bind and start serving; false (with @p error) on failure. */
    bool start(std::string &error);
    void stop();

    /** Actual bound port (after start; useful with port 0). */
    std::uint16_t boundPort() const;

    /** Sweep-service counters (frame-level ones via netStats). */
    struct Stats
    {
        /** Sweep points (whole synthetic runs) answered. */
        std::uint64_t pointsServed = 0;
        /** Of those, answered from the blob cache. */
        std::uint64_t cacheHits = 0;
        /** Requests rejected as malformed or invalid. */
        std::uint64_t badRequests = 0;
        /** Other runRequests answered: temporal-shard slices. */
        std::uint64_t slicesServed = 0;
    };
    Stats stats() const;
    net::ServerStats netStats() const;

    /** Publish ftd.* counters plus transport + cache + pool metrics
     *  (the same registry snapshot streamed as metricsEpoch). */
    void reportTo(telemetry::MetricsRegistry &metrics) const;

  private:
    std::vector<net::Frame> handle(std::vector<net::Frame> batch);

    net::FrameServer server_;
    std::atomic<std::uint64_t> pointsServed_{0};
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> badRequests_{0};
    std::atomic<std::uint64_t> slicesServed_{0};
};

} // namespace fasttrack

#endif // FT_SIM_FTD_SERVER_HPP
