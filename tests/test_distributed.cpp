/**
 * @file
 * End-to-end contract of the distributed sweep fabric: an ftd daemon
 * on loopback must serve sweeps byte-identical to the in-process
 * path, answer warm points from its blob cache, survive hostile
 * requests, and the client must ride out killed sessions and dead
 * endpoints via retry/backoff and local fallback — a sweep never
 * fails because the fleet did. Also pins the message payload codecs
 * for sweep points (whole-run runRequest / runResult) and
 * metricsEpoch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "epoch_withholding_relay.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "sim/ftd_server.hpp"
#include "sim/remote.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep_cache.hpp"

namespace fasttrack {
namespace {

/** Content hash of a full result (every counter and histogram). */
std::uint64_t
resultHash(const SynthResult &res)
{
    const auto bytes = encodeSynthResult(res);
    sched::Fnv1a h;
    h.addBytes(bytes.data(), bytes.size());
    return h.value();
}

/**
 * Small, fast workloads. Each test uses its own seed base so cold
 * runs stay cold even when the whole binary runs in one process
 * (the sweep cache is process-global).
 */
std::vector<SyntheticWorkload>
smallWorkloads(std::size_t count, std::uint64_t seed_base)
{
    std::vector<SyntheticWorkload> workloads(count);
    for (std::size_t i = 0; i < count; ++i) {
        workloads[i].pattern = TrafficPattern::random;
        workloads[i].injectionRate = 0.25 + 0.05 * static_cast<double>(i);
        workloads[i].packetsPerPe = 24;
        workloads[i].seed = seed_base + i;
    }
    return workloads;
}

/** Install a remote config for the scope, clear it on exit (also on
 *  assertion failure) so later tests run the local path. */
struct WithRemote
{
    explicit WithRemote(RemoteConfig config)
    {
        setRemoteConfig(std::move(config));
    }
    ~WithRemote() { clearRemoteConfig(); }
};

RemoteConfig
loopbackConfig(std::initializer_list<std::uint16_t> ports)
{
    RemoteConfig config;
    for (std::uint16_t port : ports)
        config.endpoints.push_back(net::Endpoint{"127.0.0.1", port});
    // Force every point over the wire: the daemon shares this
    // process's sweep cache, so a client-side pre-pass would answer
    // locally and leave the transport untested.
    config.useLocalCache = false;
    config.backoffInitialMs = 1;
    config.backoffCapMs = 20;
    config.connectTimeoutMs = 2'000;
    return config;
}

/** A started FtdServer on an ephemeral loopback port. */
struct WithDaemon
{
    FtdServer server;
    explicit WithDaemon(net::ServerConfig config = {})
        : server(std::move(config))
    {
        std::string error;
        EXPECT_TRUE(server.start(error)) << error;
    }
    ~WithDaemon() { server.stop(); }
    std::uint16_t port() { return server.boundPort(); }
};

/** An ephemeral port with nothing listening on it. */
std::uint16_t
deadPort()
{
    net::Listener listener;
    std::string error;
    EXPECT_TRUE(listener.open("127.0.0.1", 0, error)) << error;
    const std::uint16_t port = listener.boundPort();
    listener.close();
    return port;
}

/** A raw-socket session on @p port, handshaken by hand; invalid
 *  (with a test failure recorded) if the handshake fails. */
net::Socket
rawSession(std::uint16_t port)
{
    std::string error;
    net::Socket sock = net::connectTo("127.0.0.1", port, 2'000, error);
    EXPECT_TRUE(sock.valid()) << error;
    net::Frame hello;
    hello.type = net::MessageType::hello;
    net::WireWriter hw;
    hw.u32(net::kWireVersion);
    hw.u32(kSweepCacheSchema);
    hw.u32(8);
    hello.payload = hw.take();
    net::Frame ack;
    if (!sock.valid() ||
        net::sendFrame(sock, hello, 2'000) != net::FrameStatus::ok ||
        net::recvFrame(sock, ack, 2'000, 2'000) != net::FrameStatus::ok ||
        ack.type != net::MessageType::helloAck) {
        ADD_FAILURE() << "handshake failed";
        return {};
    }
    net::WireReader ar(ack.payload);
    std::uint32_t version = 0, schema = 0, granted = 0;
    EXPECT_TRUE(ar.u32(version) && ar.u32(schema) && ar.u32(granted));
    EXPECT_EQ(schema, kSweepCacheSchema); // daemon speaks its build
    return sock;
}

/** What reportRemoteStats exports for the most recent remote run. */
std::map<std::string, double>
remoteMetrics()
{
    telemetry::MetricsRegistry metrics;
    reportRemoteStats(metrics);
    metrics.snapshot(0);
    return metrics.epochs().back().values;
}

std::string
loopbackLabel(std::uint16_t port)
{
    return "127.0.0.1:" + std::to_string(port);
}

/** A sweep point on the wire: a whole synthetic run on a
 *  two-channel device. */
ShardSliceRequest
sampleRequest(std::uint64_t seed)
{
    ShardSliceRequest request;
    request.config = NocConfig::fastTrack(4, 2, 1);
    request.channels = 2;
    request.workload = smallWorkloads(1, seed).front();
    request.sliceCycles = 100'000;
    request.runMaxCycles = 100'000;
    request.key = checkpointKey(request.config, request.channels,
                                request.workload);
    return request;
}

/** @p request with its key re-derived from its (edited) inputs. */
ShardSliceRequest
rekeyed(ShardSliceRequest request)
{
    request.key = request.kind == SnapshotKind::synthetic
                      ? checkpointKey(request.config, request.channels,
                                      request.workload)
                      : checkpointKey(request.config, request.channels,
                                      request.trace);
    return request;
}

bool
decodes(const ShardSliceRequest &request)
{
    ShardSliceRequest out;
    return decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(request), out);
}

/** A two-message trace for an @p n x @p n device. */
Trace
tinyTrace(std::uint32_t n)
{
    Trace trace;
    trace.name = "tiny";
    trace.n = n;
    trace.messages.push_back(TraceMessage{0, 0, 1, 0, 0, {}});
    trace.messages.push_back(TraceMessage{1, 1, 2, 0, 3, {0}});
    return trace;
}

TEST(DistributedCodec, SweepRequestRoundTrips)
{
    // A sweep point is a whole run in the one request shape: no
    // snapshot, a slice budget equal to the cycle guard, and (unlike
    // a slice) more than one channel.
    const ShardSliceRequest request = sampleRequest(9001);
    ASSERT_TRUE(request.wholeRun());
    ShardSliceRequest decoded;
    ASSERT_TRUE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(request), decoded));
    EXPECT_EQ(decoded.kind, SnapshotKind::synthetic);
    EXPECT_EQ(decoded.config.n, request.config.n);
    EXPECT_EQ(decoded.config.d, request.config.d);
    EXPECT_EQ(decoded.config.r, request.config.r);
    EXPECT_EQ(decoded.config.variant, request.config.variant);
    EXPECT_EQ(decoded.channels, request.channels);
    EXPECT_EQ(decoded.workload.pattern, request.workload.pattern);
    EXPECT_EQ(decoded.workload.injectionRate,
              request.workload.injectionRate);
    EXPECT_EQ(decoded.workload.packetsPerPe,
              request.workload.packetsPerPe);
    EXPECT_EQ(decoded.workload.seed, request.workload.seed);
    EXPECT_EQ(decoded.sliceCycles, request.sliceCycles);
    EXPECT_EQ(decoded.runMaxCycles, request.runMaxCycles);
    EXPECT_EQ(decoded.key, request.key);
    EXPECT_FALSE(decoded.hasSnapshot);
    EXPECT_TRUE(decoded.wholeRun());
    // The keys the daemon derives from the decoded request must equal
    // the ones the client derives from the original — the cross-node
    // cache-sharing contract.
    EXPECT_EQ(sweepKey(decoded.config, decoded.channels,
                       decoded.workload, decoded.runMaxCycles),
              sweepKey(request.config, request.channels,
                       request.workload, request.runMaxCycles));
    EXPECT_EQ(checkpointKey(decoded.config, decoded.channels,
                            decoded.workload),
              request.key);

    // The widest device a whole run may ask for.
    ShardSliceRequest wide = request;
    wide.channels = 64;
    wide = rekeyed(wide);
    ASSERT_TRUE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(wide), decoded));
    EXPECT_EQ(decoded.channels, 64u);
}

TEST(DistributedCodec, RunRequestBytesArePinned)
{
    // One encoded request, recorded before the codec was derived from
    // the NocConfig/SyntheticWorkload field lists: the wire bytes must
    // not move.
    NocConfig config = NocConfig::fastTrack(8, 2, 1, NocVariant::ftInject);
    config.turnPriority = false;
    config.allowUpgrade = false;
    config.shortLinkStages = 1;
    config.expressLinkStages = 2;
    ShardSliceRequest request;
    request.config = config;
    request.workload.pattern = TrafficPattern::local;
    request.workload.injectionRate = 0.3;
    request.workload.packetsPerPe = 77;
    request.workload.localRadius = 3;
    request.workload.seed = 12345;
    request.sliceCycles = 54321;
    request.runMaxCycles = 54321;
    request.key = checkpointKey(config, 1, request.workload);
    const std::vector<std::uint8_t> pinned = {
        0x01, 0x08, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01,
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x33, 0x33, 0x33, 0x33,
        0x33, 0x33, 0xd3, 0x3f, 0x4d, 0x00, 0x00, 0x00, 0x03, 0x00,
        0x00, 0x00, 0x39, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x31, 0xd4, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x31, 0xd4,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xad, 0x8a, 0x14, 0x38,
        0xb2, 0x5f, 0x66, 0x9f, 0x00,
    };
    EXPECT_EQ(encodeShardSliceRequestPayload(request), pinned);
    ShardSliceRequest decoded;
    ASSERT_TRUE(decodeShardSliceRequestPayload(pinned, decoded));
    EXPECT_EQ(encodeShardSliceRequestPayload(decoded), pinned);
}

TEST(DistributedCodec, SweepRequestRejectsHostilePayloads)
{
    const std::vector<std::uint8_t> good =
        encodeShardSliceRequestPayload(sampleRequest(9002));
    ShardSliceRequest out;

    // Truncation at every boundary fails cleanly.
    for (std::size_t keep = 0; keep < good.size(); ++keep) {
        const std::vector<std::uint8_t> cut(
            good.begin(),
            good.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_FALSE(decodeShardSliceRequestPayload(cut, out)) << keep;
    }
    // Trailing junk fails (payloads decode exactly).
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_FALSE(decodeShardSliceRequestPayload(padded, out));
    // Non-canonical field encodings: a bool byte of 2 (allowExpressTurn
    // sits after kind, n, d, r, variant) and an unknown variant.
    std::vector<std::uint8_t> forged = good;
    forged[17] = 2;
    EXPECT_FALSE(decodeShardSliceRequestPayload(forged, out));
    forged = good;
    forged[13] = 9;
    EXPECT_FALSE(decodeShardSliceRequestPayload(forged, out));

    // Structurally valid but semantically hostile requests are
    // rejected by validation, not FT_FATAL: the daemon must answer
    // with an error frame, never die.
    ShardSliceRequest hostile = sampleRequest(9003);
    hostile.config.d = hostile.config.n; // d > n/2
    EXPECT_FALSE(decodes(rekeyed(hostile)));

    hostile = sampleRequest(9003);
    hostile.workload.injectionRate = 0.0;
    EXPECT_FALSE(decodes(rekeyed(hostile)));

    hostile = sampleRequest(9003);
    hostile.workload.packetsPerPe = (1u << 20) + 1; // allocation bound
    EXPECT_FALSE(decodes(rekeyed(hostile)));

    hostile = sampleRequest(9003);
    hostile.sliceCycles = 0;
    hostile.runMaxCycles = 0;
    EXPECT_FALSE(decodes(hostile));

    // Channel bounds: 1..64 for a whole run, exactly 1 for a partial
    // budget (slices capture engine state).
    for (std::uint32_t channels : {0u, 65u}) {
        hostile = sampleRequest(9003);
        hostile.channels = channels;
        EXPECT_FALSE(decodes(rekeyed(hostile))) << channels;
    }
    hostile = sampleRequest(9003);
    hostile.sliceCycles = hostile.runMaxCycles - 1;
    EXPECT_FALSE(decodes(hostile));
    hostile.channels = 1;
    EXPECT_TRUE(decodes(rekeyed(hostile)));

    // BITCOMPL needs a power-of-two PE count: 36 PEs would make
    // DestinationGenerator abort the daemon.
    hostile = sampleRequest(9003);
    hostile.config = NocConfig::hoplite(6);
    hostile.workload.pattern = TrafficPattern::bitComplement;
    EXPECT_FALSE(decodes(rekeyed(hostile)));
    hostile.config = NocConfig::hoplite(4);
    EXPECT_TRUE(decodes(rekeyed(hostile)));

    // A trace for another device side would fail TraceReplayer's
    // assertion on the daemon.
    ShardSliceRequest trace;
    trace.kind = SnapshotKind::trace;
    trace.config = NocConfig::hoplite(8);
    trace.trace = tinyTrace(4);
    EXPECT_FALSE(decodes(rekeyed(trace)));
    trace.trace = tinyTrace(8);
    EXPECT_TRUE(decodes(rekeyed(trace)));
}

TEST(DistributedCodec, SweepResultRoundTrips)
{
    const SynthResult res = cachedRunSynthetic(
        NocConfig::hoplite(4), 1, smallWorkloads(1, 9010).front());
    // A sweep point's answer: a finished run, no handoff snapshot,
    // and the daemon's cache-hit flag.
    ShardSliceResult answer;
    answer.done = true;
    answer.cacheHit = true;
    answer.synth = res;
    const std::vector<std::uint8_t> payload =
        encodeShardSliceResultPayload(answer);

    ShardSliceResult decoded;
    ASSERT_TRUE(decodeShardSliceResultPayload(payload, decoded));
    EXPECT_EQ(decoded.kind, SnapshotKind::synthetic);
    EXPECT_TRUE(decoded.done);
    EXPECT_TRUE(decoded.cacheHit);
    EXPECT_FALSE(decoded.hasSnapshot);
    EXPECT_EQ(resultHash(decoded.synth), resultHash(res));
    answer.cacheHit = false;
    ASSERT_TRUE(decodeShardSliceResultPayload(
        encodeShardSliceResultPayload(answer), decoded));
    EXPECT_FALSE(decoded.cacheHit);

    // Hostile variants: truncated, padded, a cache-hit flag that is
    // not 0/1 or sits on an unfinished run, an empty inner result.
    std::vector<std::uint8_t> cut(payload.begin(), payload.end() - 1);
    EXPECT_FALSE(decodeShardSliceResultPayload(cut, decoded));
    std::vector<std::uint8_t> padded = payload;
    padded.push_back(0);
    EXPECT_FALSE(decodeShardSliceResultPayload(padded, decoded));
    std::vector<std::uint8_t> forged = payload;
    forged[2] = 2; // layout: u8 kind, u8 done, u8 cacheHit, ...
    EXPECT_FALSE(decodeShardSliceResultPayload(forged, decoded));
    forged = payload;
    forged[1] = 0;
    EXPECT_FALSE(decodeShardSliceResultPayload(forged, decoded));
    net::WireWriter empty;
    empty.u8(static_cast<std::uint8_t>(SnapshotKind::synthetic));
    empty.u8(1);
    empty.u8(0);
    empty.u32(0);
    empty.u8(0);
    EXPECT_FALSE(decodeShardSliceResultPayload(empty.take(), decoded));
}

TEST(DistributedCodec, MetricsPayloadRoundTrips)
{
    const std::map<std::string, double> values = {
        {"ftd.points_served", 12.0},
        {"sweep_cache.hits", 3.5},
        {"", -0.0},
    };
    std::map<std::string, double> decoded;
    ASSERT_TRUE(decodeMetricsPayload(encodeMetricsPayload(values),
                                     decoded));
    EXPECT_EQ(decoded, values);

    ASSERT_TRUE(decodeMetricsPayload(encodeMetricsPayload({}),
                                     decoded));
    EXPECT_TRUE(decoded.empty());

    // Count larger than the payload backs fails cleanly.
    net::WireWriter w;
    w.u32(1'000'000);
    EXPECT_FALSE(decodeMetricsPayload(w.take(), decoded));
}

TEST(Distributed, TwoDaemonSweepIsByteIdenticalToLocal)
{
    WithDaemon a, b;
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(6, 9100);

    std::vector<SynthResult> remote;
    {
        WithRemote wr(loopbackConfig({a.port(), b.port()}));
        remote = cachedRuns(config, 1, workloads);
    }
    // remoteStats() reports this run, not process-cumulative totals.
    const RemoteStats after = remoteStats();
    EXPECT_EQ(after.pointsRemote, workloads.size());
    EXPECT_EQ(after.pointsFallback, 0u);
    // Every session parted on its final batch's metricsEpoch.
    EXPECT_EQ(after.drainTimeouts, 0u);

    // Round-robin sharding puts points on both daemons.
    EXPECT_GT(a.server.stats().pointsServed, 0u);
    EXPECT_GT(b.server.stats().pointsServed, 0u);
    EXPECT_EQ(a.server.stats().pointsServed +
                  b.server.stats().pointsServed,
              workloads.size());

    // Each endpoint's gauges come from that final epoch, which counts
    // every point the daemon served: it was recorded, not dropped.
    const std::map<std::string, double> metrics = remoteMetrics();
    EXPECT_EQ(metrics.at("remote.drain_timeouts"), 0.0);
    for (WithDaemon *daemon : {&a, &b}) {
        const std::string gauge = "remote." +
                                  loopbackLabel(daemon->port()) +
                                  ".ftd.points_served";
        ASSERT_EQ(metrics.count(gauge), 1u) << gauge;
        EXPECT_EQ(metrics.at(gauge),
                  static_cast<double>(
                      daemon->server.stats().pointsServed))
            << gauge;
    }

    // Remote execution is invisible in the bytes: per point, the
    // local path produces the identical result.
    const std::vector<SynthResult> local =
        cachedRuns(config, 1, workloads);
    ASSERT_EQ(remote.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i)
        EXPECT_EQ(resultHash(remote[i]), resultHash(local[i])) << i;
}

TEST(Distributed, WarmDaemonAnswersFromItsCache)
{
    WithDaemon daemon;
    const NocConfig config = NocConfig::hoplite(4);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(4, 9200);
    WithRemote wr(loopbackConfig({daemon.port()}));

    const std::vector<SynthResult> cold =
        cachedRuns(config, 1, workloads);
    const RemoteStats cold1 = remoteStats();
    EXPECT_EQ(cold1.pointsRemote, workloads.size());
    EXPECT_EQ(cold1.remoteCacheHits, 0u);

    // Same sweep again: every point travels the wire (the client's
    // own cache pre-pass is off) and the daemon replays its blob
    // cache instead of simulating. remoteStats() now describes the
    // warm run alone — the cold run's counters must not leak in
    // (the never-reset-counter regression).
    const std::vector<SynthResult> warm =
        cachedRuns(config, 1, workloads);
    const RemoteStats warm1 = remoteStats();
    EXPECT_EQ(warm1.pointsRemote, workloads.size());
    EXPECT_EQ(warm1.remoteCacheHits, workloads.size());
    // The lifetime view keeps accumulating across both runs.
    const RemoteStats life = remoteLifetimeStats();
    EXPECT_GE(life.pointsRemote, 2 * workloads.size());
    EXPECT_EQ(daemon.server.stats().cacheHits, workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(resultHash(warm[i]), resultHash(cold[i])) << i;

    // The daemon's telemetry epochs surfaced as client-side gauges.
    telemetry::MetricsRegistry metrics;
    reportRemoteStats(metrics);
    metrics.snapshot(0);
    const auto &values = metrics.epochs().back().values;
    const std::string label = "127.0.0.1:" +
                              std::to_string(daemon.port());
    EXPECT_EQ(values.count("remote." + label + ".ftd.points_served"),
              1u);
}

TEST(Distributed, DroppedEndpointStopsBeingExported)
{
    // Regression: endpoint gauges used to accumulate in a never-
    // cleared process-global map, so a daemon dropped from the
    // configuration kept being re-exported with stale values forever.
    // Gauges must describe the most recent run's endpoints only.
    WithDaemon a, b;
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    const std::string label_a =
        "127.0.0.1:" + std::to_string(a.port());
    const std::string label_b =
        "127.0.0.1:" + std::to_string(b.port());

    {
        WithRemote wr(loopbackConfig({a.port()}));
        cachedRuns(config, 1, smallWorkloads(2, 9600));
    }
    telemetry::MetricsRegistry first;
    reportRemoteStats(first);
    first.snapshot(0);
    const auto &v1 = first.epochs().back().values;
    EXPECT_EQ(v1.count("remote." + label_a + ".ftd.points_served"),
              1u);

    {
        WithRemote wr(loopbackConfig({b.port()}));
        cachedRuns(config, 1, smallWorkloads(2, 9601));
    }
    telemetry::MetricsRegistry second;
    reportRemoteStats(second);
    second.snapshot(0);
    const auto &v2 = second.epochs().back().values;
    EXPECT_EQ(v2.count("remote." + label_b + ".ftd.points_served"),
              1u);
    EXPECT_EQ(v2.count("remote." + label_a + ".ftd.points_served"),
              0u);
}

TEST(Distributed, DeadEndpointFallsBackToLocalScalarPath)
{
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(3, 9300);

    RemoteConfig remote = loopbackConfig({deadPort()});
    remote.maxAttempts = 2;
    remote.connectTimeoutMs = 200;
    std::vector<SynthResult> viaFallback;
    {
        WithRemote wr(std::move(remote));
        viaFallback = cachedRuns(config, 1, workloads);
    }
    const RemoteStats after = remoteStats();
    EXPECT_EQ(after.pointsFallback, workloads.size());
    EXPECT_GE(after.connectFailures, 2u);
    EXPECT_EQ(after.pointsRemote, 0u);

    const std::vector<SynthResult> local =
        cachedRuns(config, 1, workloads);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(resultHash(viaFallback[i]), resultHash(local[i]))
            << i;
}

TEST(Distributed, ClientRidesOutInjectedMidStreamDrops)
{
    // The daemon hard-closes every session after two response frames
    // — a worker killed mid-sweep. The kill is a real TCP reset, and
    // a reset may destroy results already queued in the client's
    // receive buffer, so whether a given session counts as progress
    // is a kernel-level race. The contract under test is the
    // degradation path: every point completes with byte-identical
    // results, over reconnects while the daemon looks alive and via
    // local fallback once the retry budget is spent.
    net::ServerConfig config;
    config.dropAfterFrames = 2;
    WithDaemon daemon(std::move(config));
    const NocConfig noc = NocConfig::fastTrack(4, 2, 1);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(5, 9400);

    std::vector<SynthResult> remote;
    {
        WithRemote wr(loopbackConfig({daemon.port()}));
        remote = cachedRuns(noc, 1, workloads);
    }
    const RemoteStats after = remoteStats();
    EXPECT_EQ(after.pointsRemote + after.pointsFallback,
              workloads.size());
    EXPECT_GE(after.reconnects, 2u);
    EXPECT_GE(daemon.server.netStats().injectedDrops, 2u);

    const std::vector<SynthResult> local =
        cachedRuns(noc, 1, workloads);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(resultHash(remote[i]), resultHash(local[i])) << i;
}

TEST(Distributed, EpochlessDaemonCostsOneBoundedWaitPerSession)
{
    // A daemon that answers every point but never sends the
    // batch-closing metricsEpoch: the client must still finish on the
    // kEpochDrainMs bound, keep every answer, and count the wait.
    WithDaemon daemon;
    EpochWithholdingRelay relay(daemon.port());
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(3, 9700);
    const std::uint64_t lifetimeBefore =
        remoteLifetimeStats().drainTimeouts;

    std::vector<SynthResult> remote;
    {
        WithRemote wr(loopbackConfig({relay.port()}));
        remote = cachedRuns(config, 1, workloads);
    }
    const RemoteStats after = remoteStats();
    EXPECT_EQ(after.pointsRemote, workloads.size());
    EXPECT_EQ(after.pointsFallback, 0u);
    EXPECT_EQ(after.reconnects, 0u);
    EXPECT_EQ(relay.sessions(), 1u);
    EXPECT_GE(relay.withheld(), 1u);
    EXPECT_EQ(after.drainTimeouts, 1u);
    EXPECT_EQ(remoteLifetimeStats().drainTimeouts, lifetimeBefore + 1);

    const std::map<std::string, double> metrics = remoteMetrics();
    EXPECT_EQ(metrics.at("remote.drain_timeouts"), 1.0);
    EXPECT_EQ(metrics.count("remote." + loopbackLabel(relay.port()) +
                            ".ftd.points_served"),
              0u);

    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const SynthResult local =
            runSim({.config = &config, .workload = &workloads[i]})
                .synth;
        EXPECT_EQ(resultHash(remote[i]), resultHash(local)) << i;
    }
}

/** Send one runRequest payload and expect, in order, a
 *  kErrBadRequest error echoing @p request_id and the batch's epoch. */
void
expectRejected(net::Socket &sock, const std::vector<std::uint8_t> &payload,
               std::uint64_t request_id)
{
    net::Frame bad;
    bad.type = net::MessageType::runRequest;
    bad.requestId = request_id;
    bad.payload = payload;
    ASSERT_EQ(net::sendMessage(sock, bad, 2'000), net::FrameStatus::ok);
    net::Frame reply;
    ASSERT_EQ(net::recvMessage(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    ASSERT_EQ(reply.type, net::MessageType::error);
    EXPECT_EQ(reply.requestId, request_id);
    std::uint32_t code = 0;
    std::string message;
    ASSERT_TRUE(net::parseErrorFrame(reply, code, message));
    EXPECT_EQ(code, net::kErrBadRequest);
    ASSERT_EQ(net::recvMessage(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(reply.type, net::MessageType::metricsEpoch);
}

/** Send one good sweep point, expect its runResult (finished, not a
 *  slice) and then the batch's epoch, whose values are returned. */
std::map<std::string, double>
expectServed(net::Socket &sock, const ShardSliceRequest &request,
             std::uint64_t request_id)
{
    net::Frame good;
    good.type = net::MessageType::runRequest;
    good.requestId = request_id;
    good.payload = encodeShardSliceRequestPayload(request);
    EXPECT_EQ(net::sendMessage(sock, good, 2'000), net::FrameStatus::ok);
    net::Frame reply;
    EXPECT_EQ(net::recvMessage(sock, reply, 60'000, 10'000),
              net::FrameStatus::ok);
    EXPECT_EQ(reply.type, net::MessageType::runResult);
    EXPECT_EQ(reply.requestId, request_id);
    ShardSliceResult result;
    EXPECT_TRUE(decodeShardSliceResultPayload(reply.payload, result));
    EXPECT_TRUE(result.done);
    EXPECT_FALSE(result.hasSnapshot);
    EXPECT_EQ(net::recvMessage(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(reply.type, net::MessageType::metricsEpoch);
    std::map<std::string, double> epoch;
    EXPECT_TRUE(decodeMetricsPayload(reply.payload, epoch));
    return epoch;
}

void
partAndStop(net::Socket &sock, WithDaemon &daemon)
{
    net::Frame goodbye;
    goodbye.type = net::MessageType::goodbye;
    EXPECT_EQ(net::sendFrame(sock, goodbye, 2'000), net::FrameStatus::ok);
    sock.close();
    daemon.server.stop();
}

TEST(Distributed, HostileRequestGetsErrorFrameAndSessionSurvives)
{
    WithDaemon daemon;

    net::Socket sock = rawSession(daemon.port());
    ASSERT_TRUE(sock.valid());

    // A runRequest whose payload is garbage: answered with a
    // kErrBadRequest error frame (echoing the request id), followed
    // by the batch's telemetry epoch — and the session stays up.
    expectRejected(sock, {0xde, 0xad, 0xbe, 0xef}, 41);

    // A well-formed point whose key does not match its inputs.
    ShardSliceRequest forged = sampleRequest(9500);
    forged.key ^= 1;
    expectRejected(sock, encodeShardSliceRequestPayload(forged), 42);

    // The same session then serves a valid point.
    ShardSliceRequest request = sampleRequest(9500);
    request.sliceCycles = request.runMaxCycles = kDefaultMaxCycles;
    const std::map<std::string, double> epoch =
        expectServed(sock, request, 43);
    EXPECT_GE(epoch.at("ftd.points_served"), 1.0);
    EXPECT_GE(epoch.at("ftd.bad_requests"), 2.0);

    partAndStop(sock, daemon);
    EXPECT_EQ(daemon.server.stats().badRequests, 2u);
    EXPECT_EQ(daemon.server.stats().pointsServed, 1u);
    EXPECT_EQ(daemon.server.netStats().protocolErrors, 0u);
}

TEST(Distributed, RequestsThatAbortedTheDaemonGetErrorFrames)
{
    // Both requests decoded at wire version 2 and then took the
    // daemon process down: BITCOMPL on a PE count that is not a power
    // of two (FT_FATAL in DestinationGenerator), and a trace for
    // another device side (FT_ASSERT in TraceReplayer). Now each is a
    // typed rejection and the session serves on.
    WithDaemon daemon;
    net::Socket sock = rawSession(daemon.port());
    ASSERT_TRUE(sock.valid());

    ShardSliceRequest bitcompl = sampleRequest(9550);
    bitcompl.config = NocConfig::hoplite(6);
    bitcompl.channels = 1;
    bitcompl.workload.pattern = TrafficPattern::bitComplement;
    expectRejected(sock, encodeShardSliceRequestPayload(
                             rekeyed(bitcompl)),
                   50);

    ShardSliceRequest side;
    side.kind = SnapshotKind::trace;
    side.config = NocConfig::hoplite(8);
    side.trace = tinyTrace(4);
    side.sliceCycles = side.runMaxCycles = 10'000;
    expectRejected(sock, encodeShardSliceRequestPayload(rekeyed(side)),
                   51);

    const std::map<std::string, double> epoch =
        expectServed(sock, sampleRequest(9551), 52);
    EXPECT_EQ(epoch.at("ftd.bad_requests"), 2.0);

    partAndStop(sock, daemon);
    EXPECT_EQ(daemon.server.stats().badRequests, 2u);
    EXPECT_EQ(daemon.server.stats().pointsServed, 1u);
}

TEST(Distributed, MixedConfigBatchAnswersInArrivalOrder)
{
    // One raw write carries a drained batch that interleaves two
    // configs and two channel counts of whole-run sweep points with a
    // temporal-shard slice that carries a snapshot: the daemon
    // answers every request in arrival order, byte-identical to the
    // local path.
    WithDaemon daemon;
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(4, 9700);
    std::vector<ShardSliceRequest> requests;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        ShardSliceRequest r;
        r.config = i % 2 == 0 ? NocConfig::fastTrack(8, 2, 1)
                              : NocConfig::hoplite(8);
        r.channels = i % 2 == 0 ? 1 : 3;
        r.workload = workloads[i];
        r.sliceCycles = r.runMaxCycles = kDefaultMaxCycles;
        requests.push_back(rekeyed(r));
    }
    // The slice resumes a run 64 cycles in and advances 64 more.
    ShardSliceRequest slice;
    slice.config = NocConfig::fastTrack(4, 2, 1);
    slice.workload = smallWorkloads(1, 9710).front();
    slice.workload.packetsPerPe = 192;
    slice.sliceCycles = 64;
    slice.runMaxCycles = 100'000;
    {
        auto noc = makeNoc(slice.config, 1);
        RunRequest run;
        run.device = noc.get();
        run.workload = &slice.workload;
        run.sim.maxCycles = 64;
        run.sim.captureFinal = &slice.snapshot;
        ASSERT_TRUE(runSim(run).finalCaptured);
        slice.snapshot.trimState();
        slice.hasSnapshot = true;
    }
    requests.insert(requests.begin() + 2, rekeyed(slice));

    // Local reference computed with the shared cache emptied and off,
    // so the daemon below misses and really simulates every point.
    sweepCache().clearMemory();
    const bool cacheWas = sweepCacheEnabled();
    setSweepCacheEnabled(false);
    std::vector<SynthResult> local;
    for (const ShardSliceRequest &r : requests) {
        if (r.wholeRun()) {
            local.push_back(cachedRuns(r.config, r.channels, {r.workload},
                                       r.runMaxCycles)
                                .front());
            continue;
        }
        auto noc = makeNoc(r.config, 1);
        Snapshot next;
        RunRequest run;
        run.device = noc.get();
        run.workload = &r.workload;
        run.sim.maxCycles = 128;
        run.sim.resumeSnapshot = &r.snapshot;
        run.sim.captureFinal = &next;
        local.push_back(runSim(run).synth);
    }
    setSweepCacheEnabled(cacheWas);

    net::Socket sock = rawSession(daemon.port());
    ASSERT_TRUE(sock.valid());
    // One write carries every request, so the daemon drains them all
    // into a single batch.
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        net::Frame frame;
        frame.type = net::MessageType::runRequest;
        frame.requestId = 100 + i;
        frame.payload = encodeShardSliceRequestPayload(requests[i]);
        const std::vector<std::uint8_t> encoded = net::encodeFrame(frame);
        bytes.insert(bytes.end(), encoded.begin(), encoded.end());
    }
    ASSERT_EQ(sock.sendAll(bytes.data(), bytes.size(), 2'000),
              net::IoStatus::ok);

    for (std::size_t i = 0; i < requests.size(); ++i) {
        net::Frame reply;
        ASSERT_EQ(net::recvMessage(sock, reply, 60'000, 10'000),
                  net::FrameStatus::ok);
        // A metricsEpoch here would mean the batch was split.
        ASSERT_EQ(reply.type, net::MessageType::runResult) << i;
        EXPECT_EQ(reply.requestId, 100 + i);
        ShardSliceResult result;
        ASSERT_TRUE(decodeShardSliceResultPayload(reply.payload, result));
        EXPECT_FALSE(result.cacheHit) << i;
        EXPECT_EQ(result.done, requests[i].wholeRun()) << i;
        EXPECT_EQ(result.hasSnapshot, !requests[i].wholeRun()) << i;
        EXPECT_EQ(resultHash(result.synth), resultHash(local[i])) << i;
    }
    net::Frame epoch;
    ASSERT_EQ(net::recvFrame(sock, epoch, 10'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(epoch.type, net::MessageType::metricsEpoch);

    partAndStop(sock, daemon);
    EXPECT_EQ(daemon.server.stats().pointsServed, workloads.size());
    EXPECT_EQ(daemon.server.stats().slicesServed, 1u);
}

} // namespace
} // namespace fasttrack
