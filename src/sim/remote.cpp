#include "sim/remote.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/logging.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "sim/sweep_cache.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace_replay.hpp"

namespace fasttrack {

namespace {

/** Where a point's result came from (one owner thread per slot). */
constexpr std::uint8_t kOriginPending = 0;
constexpr std::uint8_t kOriginLocalCache = 1;
constexpr std::uint8_t kOriginRemote = 2;

/** Bound on the wait for the metricsEpoch that closes a session's
 *  last batch. A healthy daemon sends it right after the batch's
 *  answers, so this only ever expires against a dead or silent
 *  daemon (counted in RemoteStats::drainTimeouts). */
constexpr int kEpochDrainMs = 250;

Mutex g_configMutex;
RemoteConfig g_config FT_GUARDED_BY(g_configMutex);

/**
 * Counters of one in-flight remote run (a remoteRuns or
 * runShardedSim invocation). Worker threads bump the atomics; the
 * run publishes itself once complete (publishRun), becoming the
 * "most recent run" snapshot and an increment of the lifetime
 * totals. Instance-scoping (instead of the historical process
 * globals) is what makes a second sweep's remoteStats() its own
 * numbers; scoping the epoch map to the run is what stops endpoints
 * dropped from --remote from being re-exported forever.
 */
struct RunCounters
{
    std::atomic<std::uint64_t> pointsRemote{0};
    std::atomic<std::uint64_t> remoteCacheHits{0};
    std::atomic<std::uint64_t> localCacheHits{0};
    std::atomic<std::uint64_t> pointsFallback{0};
    std::atomic<std::uint64_t> connectFailures{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::uint64_t> errorFrames{0};
    std::atomic<std::uint64_t> slicesRemote{0};
    std::atomic<std::uint64_t> slicesFallback{0};
    std::atomic<std::uint64_t> drainTimeouts{0};

    Mutex epochMutex;
    /** Latest telemetry epoch per endpoint label, this run only. */
    std::map<std::string, std::map<std::string, double>> epochs
        FT_GUARDED_BY(epochMutex);

    RemoteStats snapshot() const
    {
        RemoteStats s;
        s.pointsRemote = pointsRemote.load(std::memory_order_relaxed);
        s.remoteCacheHits =
            remoteCacheHits.load(std::memory_order_relaxed);
        s.localCacheHits =
            localCacheHits.load(std::memory_order_relaxed);
        s.pointsFallback =
            pointsFallback.load(std::memory_order_relaxed);
        s.connectFailures =
            connectFailures.load(std::memory_order_relaxed);
        s.reconnects = reconnects.load(std::memory_order_relaxed);
        s.errorFrames = errorFrames.load(std::memory_order_relaxed);
        s.slicesRemote = slicesRemote.load(std::memory_order_relaxed);
        s.slicesFallback =
            slicesFallback.load(std::memory_order_relaxed);
        s.drainTimeouts = drainTimeouts.load(std::memory_order_relaxed);
        return s;
    }

    void recordEpoch(const std::string &label,
                     std::map<std::string, double> values)
    {
        MutexLock lk(epochMutex);
        epochs[label] = std::move(values);
    }
};

Mutex g_statsMutex;
/** Most recent completed run (what remoteStats() reports). */
RemoteStats g_lastRun FT_GUARDED_BY(g_statsMutex);
/** Accumulation across every run (remoteLifetimeStats()). */
RemoteStats g_lifetime FT_GUARDED_BY(g_statsMutex);
/** Epoch gauges of the most recent run's endpoints only. */
std::map<std::string, std::map<std::string, double>>
    g_lastRunEpochs FT_GUARDED_BY(g_statsMutex);

void
publishRun(RunCounters &run)
{
    const RemoteStats s = run.snapshot();
    MutexLock lk(g_statsMutex);
    g_lastRun = s;
    g_lifetime.pointsRemote += s.pointsRemote;
    g_lifetime.remoteCacheHits += s.remoteCacheHits;
    g_lifetime.localCacheHits += s.localCacheHits;
    g_lifetime.pointsFallback += s.pointsFallback;
    g_lifetime.connectFailures += s.connectFailures;
    g_lifetime.reconnects += s.reconnects;
    g_lifetime.errorFrames += s.errorFrames;
    g_lifetime.slicesRemote += s.slicesRemote;
    g_lifetime.slicesFallback += s.slicesFallback;
    g_lifetime.drainTimeouts += s.drainTimeouts;
    MutexLock le(run.epochMutex);
    g_lastRunEpochs = std::move(run.epochs);
}

void
bump(std::atomic<std::uint64_t> &counter, std::uint64_t by = 1)
{
    counter.fetch_add(by, std::memory_order_relaxed);
}

/** NocConfig's own rule list plus a size cap: a daemon must reject
 *  a hostile request, not die on it, and the cap bounds what one
 *  frame can make the daemon allocate or step. */
bool
validConfigOnWire(const NocConfig &c)
{
    return c.n <= 1024 && c.violation() == nullptr;
}

/** The injector's preconditions, the pattern's rule on @p config's
 *  torus, and size caps on the budget and radius. */
bool
validWorkloadOnWire(const SyntheticWorkload &w, const NocConfig &config)
{
    if (!std::isfinite(w.injectionRate) || w.injectionRate <= 0.0 ||
        w.injectionRate > 1.0)
        return false;
    if (w.packetsPerPe < 1 || w.packetsPerPe > (1u << 20))
        return false;
    if (w.pattern == TrafficPattern::local && w.localRadius > 1024)
        return false;
    return patternViolation(w.pattern, config.n, w.localRadius) ==
           nullptr;
}

/**
 * Connect to @p endpoint and run the hello/helloAck handshake.
 * Returns an invalid socket on failure; @p permanent is set when the
 * endpoint rejected us for a reason retrying cannot fix. On success
 * @p window holds the granted pipeline window.
 */
net::Socket
connectAndHandshake(const RemoteConfig &cfg,
                    const net::Endpoint &endpoint, RunCounters &run,
                    std::uint32_t &window, bool &permanent)
{
    std::string error;
    net::Socket sock = net::connectTo(endpoint.host, endpoint.port,
                                      cfg.connectTimeoutMs, error);
    if (!sock.valid()) {
        bump(run.connectFailures);
        return net::Socket();
    }

    net::Frame hello;
    hello.type = net::MessageType::hello;
    net::WireWriter hw;
    hw.u32(net::kWireVersion);
    hw.u32(kSweepCacheSchema);
    hw.u32(cfg.window);
    hello.payload = hw.take();
    net::Frame ack;
    if (net::sendFrame(sock, hello, cfg.ioTimeoutMs) !=
            net::FrameStatus::ok ||
        net::recvFrame(sock, ack, cfg.connectTimeoutMs,
                       cfg.ioTimeoutMs) != net::FrameStatus::ok) {
        bump(run.connectFailures);
        return net::Socket();
    }
    if (ack.type == net::MessageType::error) {
        bump(run.errorFrames);
        bump(run.connectFailures);
        std::uint32_t code = 0;
        std::string message;
        if (net::parseErrorFrame(ack, code, message))
            permanent = code == net::kErrBadVersion ||
                        code == net::kErrBadSchema;
        return net::Socket();
    }
    std::uint32_t version = 0, schema = 0, granted = 0;
    net::WireReader r(ack.payload);
    if (ack.type != net::MessageType::helloAck || !r.u32(version) ||
        !r.u32(schema) || !r.u32(granted) || !r.atEnd() ||
        granted == 0) {
        bump(run.connectFailures);
        return net::Socket();
    }
    window = std::min(cfg.window, granted);
    return sock;
}

/**
 * Part cleanly once every answer is in. FtdServer::handle closes each
 * batch with exactly one metricsEpoch, so after the last answer
 * exactly one epoch is outstanding: record it and say goodbye at
 * once. kEpochDrainMs bounds the wait for a daemon that never sends
 * it; such a teardown is counted in drainTimeouts.
 */
void
drainEpochAndPart(const RemoteConfig &cfg,
                  const net::Endpoint &endpoint, net::Socket &sock,
                  RunCounters &run)
{
    net::Frame frame;
    const net::FrameStatus status =
        net::recvFrame(sock, frame, kEpochDrainMs, cfg.ioTimeoutMs);
    if (status == net::FrameStatus::timeout) {
        bump(run.drainTimeouts);
    } else if (status == net::FrameStatus::ok &&
               frame.type == net::MessageType::metricsEpoch) {
        std::map<std::string, double> values;
        if (decodeMetricsPayload(frame.payload, values))
            run.recordEpoch(endpoint.label(), std::move(values));
    }
    net::Frame goodbye;
    goodbye.type = net::MessageType::goodbye;
    net::sendFrame(sock, goodbye, cfg.ioTimeoutMs);
}

/** Accepts and files a decoded answer to the request at an index of
 *  the session's payload list; false rejects it as a rogue peer's. */
using AnswerCheck =
    std::function<bool(std::size_t index, ShardSliceResult &answer)>;

/**
 * One connection's worth of work: connect, handshake, pipeline the
 * run requests @p remaining names (indices into @p payloads, sent as
 * request ids) within the granted window, and hand each decoded
 * runResult to @p accept. Answered indices are removed from
 * @p remaining; @p permanent is set when the endpoint rejected us for
 * a reason retrying cannot fix (version/schema).
 */
void
serveConnection(const RemoteConfig &cfg, const net::Endpoint &endpoint,
                std::vector<std::size_t> &remaining,
                const std::vector<std::vector<std::uint8_t>> &payloads,
                const AnswerCheck &accept, RunCounters &run,
                bool &permanent)
{
    std::uint32_t window = 0;
    net::Socket sock = connectAndHandshake(cfg, endpoint, run, window,
                                           permanent);
    if (!sock.valid())
        return;

    // Per payload index: not sent on this session, in flight, or
    // answered.
    constexpr std::uint8_t kUnsent = 0, kInFlight = 1, kAnswered = 2;
    std::vector<std::uint8_t> state(payloads.size(), kUnsent);
    std::size_t next = 0; // next entry of `remaining` to send
    std::size_t inflight = 0;
    bool dead = false;
    while (!dead) {
        while (inflight < window && next < remaining.size()) {
            const std::size_t idx = remaining[next];
            net::Frame request;
            request.type = net::MessageType::runRequest;
            request.requestId = idx;
            request.payload = payloads[idx];
            if (net::sendMessage(sock, request, cfg.ioTimeoutMs) !=
                net::FrameStatus::ok) {
                dead = true;
                break;
            }
            state[idx] = kInFlight;
            ++inflight;
            ++next;
        }
        if (dead || inflight == 0)
            break;

        net::Frame frame;
        if (net::recvMessage(sock, frame, cfg.resultWaitMs,
                             cfg.ioTimeoutMs) != net::FrameStatus::ok)
            break;
        if (frame.type == net::MessageType::metricsEpoch) {
            std::map<std::string, double> values;
            if (decodeMetricsPayload(frame.payload, values))
                run.recordEpoch(endpoint.label(), std::move(values));
            continue;
        }
        if (frame.type == net::MessageType::error) {
            bump(run.errorFrames);
            std::uint32_t code = 0;
            std::string message;
            if (net::parseErrorFrame(frame, code, message)) {
                permanent = code == net::kErrBadVersion ||
                            code == net::kErrBadSchema;
                // A per-request rejection: that request falls back
                // locally, the session can keep serving the rest.
                if (code == net::kErrBadRequest) {
                    --inflight;
                    continue;
                }
            }
            break;
        }
        // The id must name a request this session sent and has not
        // yet had answered; anything else is a rogue peer.
        const std::uint64_t idx = frame.requestId;
        ShardSliceResult answer;
        if (frame.type != net::MessageType::runResult ||
            idx >= state.size() || state[idx] != kInFlight ||
            !decodeShardSliceResultPayload(frame.payload, answer) ||
            !accept(idx, answer))
            break;
        state[idx] = kAnswered;
        --inflight;
    }

    // Strip what this connection served.
    std::erase_if(remaining, [&state](std::size_t idx) {
        return state[idx] == kAnswered;
    });

    // Take the final batch's closing metricsEpoch, then part.
    if (remaining.empty())
        drainEpochAndPart(cfg, endpoint, sock, run);
}

/** Drive one endpoint until its points are served, the retry budget
 *  is exhausted, or the endpoint proves permanently incompatible. */
void
runEndpointWorker(const RemoteConfig &cfg,
                  const net::Endpoint &endpoint,
                  std::vector<std::size_t> points,
                  const std::vector<std::vector<std::uint8_t>> &payloads,
                  const AnswerCheck &accept, RunCounters &run)
{
    unsigned failures = 0; // consecutive attempts with no progress
    while (!points.empty() && failures < cfg.maxAttempts) {
        if (failures > 0) {
            bump(run.reconnects);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                net::backoffDelayMs(failures, cfg.backoffInitialMs,
                                    cfg.backoffCapMs)));
        }
        bool permanent = false;
        const std::size_t before = points.size();
        serveConnection(cfg, endpoint, points, payloads, accept, run,
                        permanent);
        if (permanent)
            break;
        // Progress resets the budget: a flaky worker that keeps
        // serving some of each window gets drained, not abandoned.
        failures = points.size() < before ? 1 : failures + 1;
    }
}

} // namespace

void
setRemoteConfig(RemoteConfig config)
{
    MutexLock lk(g_configMutex);
    g_config = std::move(config);
}

RemoteConfig
remoteConfig()
{
    MutexLock lk(g_configMutex);
    return g_config;
}

void
clearRemoteConfig()
{
    MutexLock lk(g_configMutex);
    g_config = RemoteConfig{};
}

bool
remoteConfigured()
{
    MutexLock lk(g_configMutex);
    return !g_config.endpoints.empty();
}

RemoteStats
remoteStats()
{
    MutexLock lk(g_statsMutex);
    return g_lastRun;
}

RemoteStats
remoteLifetimeStats()
{
    MutexLock lk(g_statsMutex);
    return g_lifetime;
}

namespace {

void
reportCounterSet(telemetry::MetricsRegistry &metrics,
                 const std::string &prefix, const RemoteStats &s)
{
    metrics.counter(prefix + "points_remote") = s.pointsRemote;
    metrics.counter(prefix + "cache_hits") = s.remoteCacheHits;
    metrics.counter(prefix + "local_cache_hits") = s.localCacheHits;
    metrics.counter(prefix + "points_fallback") = s.pointsFallback;
    metrics.counter(prefix + "connect_failures") = s.connectFailures;
    metrics.counter(prefix + "reconnects") = s.reconnects;
    metrics.counter(prefix + "error_frames") = s.errorFrames;
    metrics.counter(prefix + "slices_remote") = s.slicesRemote;
    metrics.counter(prefix + "slices_fallback") = s.slicesFallback;
    metrics.counter(prefix + "drain_timeouts") = s.drainTimeouts;
}

} // namespace

void
reportRemoteStats(telemetry::MetricsRegistry &metrics)
{
    MutexLock lk(g_statsMutex);
    reportCounterSet(metrics, "remote.", g_lastRun);
    reportCounterSet(metrics, "remote.lifetime.", g_lifetime);
    for (const auto &[label, values] : g_lastRunEpochs)
        for (const auto &[name, value] : values)
            metrics.gauge("remote." + label + "." + name) = value;
}

std::vector<SynthResult>
remoteRuns(const NocConfig &config, std::uint32_t channels,
           const std::vector<SyntheticWorkload> &workloads,
           Cycle max_cycles, const LocalRunner &local)
{
    const std::size_t count = workloads.size();
    std::vector<SynthResult> results(count);
    if (count == 0)
        return results;
    const RemoteConfig cfg = remoteConfig();
    RunCounters run; // joined before publishRun, so refs stay valid

    // Slot ownership: each index is written by exactly one endpoint
    // thread (round-robin shards are disjoint); the joins below
    // publish every write before the main thread reads.
    std::vector<std::uint8_t> origin(count, kOriginPending);
    std::vector<std::uint8_t> remoteHit(count, 0);

    // Local cache pre-pass: a point this process already knows never
    // touches the wire.
    sched::BlobCache &cache = sweepCache();
    const bool cacheOn = cfg.useLocalCache && sweepCacheEnabled();
    std::vector<std::uint64_t> keys(count);
    for (std::size_t i = 0; i < count; ++i) {
        keys[i] = sweepKey(config, channels, workloads[i], max_cycles);
        if (!cacheOn)
            continue;
        if (auto payload = cache.lookup(keys[i])) {
            SynthResult cached;
            if (decodeSynthResult(*payload, cached)) {
                results[i] = cached;
                origin[i] = kOriginLocalCache;
                bump(run.localCacheHits);
            }
        }
    }

    // Encode the pending points once, as whole runs, and shard them
    // round-robin.
    std::vector<std::vector<std::uint8_t>> payloads(count);
    std::vector<std::vector<std::size_t>> shards(cfg.endpoints.size());
    std::size_t pending = 0;
    ShardSliceRequest request;
    request.config = config;
    request.channels = channels;
    request.sliceCycles = max_cycles;
    request.runMaxCycles = max_cycles;
    for (std::size_t i = 0; i < count; ++i) {
        if (origin[i] != kOriginPending)
            continue;
        request.workload = workloads[i];
        request.key = checkpointKey(config, channels, workloads[i]);
        payloads[i] = encodeShardSliceRequestPayload(request);
        shards[pending % shards.size()].push_back(i);
        ++pending;
    }
    // A whole run's answer is final and synthetic.
    const AnswerCheck accept = [&](std::size_t i,
                                   ShardSliceResult &answer) {
        if (answer.kind != SnapshotKind::synthetic || !answer.done)
            return false;
        results[i] = answer.synth;
        remoteHit[i] = answer.cacheHit ? 1 : 0;
        origin[i] = kOriginRemote;
        return true;
    };

    if (pending > 0 && shards.size() == 1) {
        runEndpointWorker(cfg, cfg.endpoints[0], shards[0], payloads,
                          accept, run);
    } else if (pending > 0) {
        std::vector<std::thread> workers;
        workers.reserve(shards.size());
        for (std::size_t e = 0; e < shards.size(); ++e) {
            if (shards[e].empty())
                continue;
            workers.emplace_back([&, e] {
                runEndpointWorker(cfg, cfg.endpoints[e], shards[e],
                                  payloads, accept, run);
            });
        }
        for (std::thread &worker : workers)
            worker.join();
    }

    // Harvest: count, locally cache remote answers, then compute
    // whatever the fleet could not serve.
    std::vector<std::size_t> fallback;
    for (std::size_t i = 0; i < count; ++i) {
        if (origin[i] == kOriginRemote) {
            bump(run.pointsRemote);
            if (remoteHit[i] != 0)
                bump(run.remoteCacheHits);
            if (cacheOn)
                cache.store(keys[i], encodeSynthResult(results[i]));
        } else if (origin[i] == kOriginPending) {
            fallback.push_back(i);
        }
    }
    if (!fallback.empty()) {
        bump(run.pointsFallback, fallback.size());
        const std::vector<SynthResult> computed = local(fallback);
        for (std::size_t j = 0; j < fallback.size(); ++j)
            results[fallback[j]] = computed[j];
    }
    publishRun(run);
    return results;
}

// --- Message payload codecs ----------------------------------------

std::vector<std::uint8_t>
encodeMetricsPayload(const std::map<std::string, double> &values)
{
    net::WireWriter w;
    w.u32(static_cast<std::uint32_t>(values.size()));
    for (const auto &[name, value] : values) {
        w.str(name);
        w.f64(value);
    }
    return w.take();
}

bool
decodeMetricsPayload(const std::vector<std::uint8_t> &payload,
                     std::map<std::string, double> &out)
{
    std::map<std::string, double> values;
    net::WireReader r(payload);
    std::uint32_t count = 0;
    if (!r.u32(count))
        return false;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name;
        double value = 0.0;
        if (!r.str(name) || !r.f64(value))
            return false;
        values[name] = value;
    }
    if (!r.atEnd())
        return false;
    out = std::move(values);
    return true;
}

// --- Temporal-shard slice codecs -----------------------------------

namespace {

/** Smallest possible encoded TraceMessage (empty deps): the count
 *  bound that keeps a forged message count from forcing an
 *  allocation larger than the payload that claims it. */
constexpr std::size_t kMinTraceMessageBytes = 8 + 4 + 4 + 8 + 8 + 4;

/** Cap on a trace name on the wire (names label, never shape). */
constexpr std::size_t kMaxTraceNameBytes = 4096;

/** Last valid value of each enum a field list carries. */
constexpr std::uint32_t
enumLimit(NocVariant)
{
    return static_cast<std::uint32_t>(NocVariant::ftInject);
}

constexpr std::uint32_t
enumLimit(TrafficPattern)
{
    return static_cast<std::uint32_t>(TrafficPattern::transpose);
}

/** Wire form of one struct field: u32 for a u32, u8 (0/1) for a
 *  bool, u32 for an enum, f64 for a double, u64 for a u64. */
template <typename T>
void
writeField(net::WireWriter &w, T field)
{
    if constexpr (std::is_same_v<T, bool>)
        w.u8(field ? 1 : 0);
    else if constexpr (std::is_enum_v<T>)
        w.u32(static_cast<std::uint32_t>(field));
    else if constexpr (std::is_same_v<T, double>)
        w.f64(field);
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        w.u64(field);
    else
        w.u32(field);
}

/** Inverse of writeField; rejects out-of-range bools and enums. */
template <typename T>
bool
readField(net::WireReader &r, T &field)
{
    if constexpr (std::is_same_v<T, bool>) {
        std::uint8_t v = 0;
        if (!r.u8(v) || v > 1)
            return false;
        field = v != 0;
        return true;
    } else if constexpr (std::is_enum_v<T>) {
        std::uint32_t v = 0;
        if (!r.u32(v) || v > enumLimit(T{}))
            return false;
        field = static_cast<T>(v);
        return true;
    } else if constexpr (std::is_same_v<T, double>) {
        return r.f64(field);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        return r.u64(field);
    } else {
        static_assert(std::is_same_v<T, std::uint32_t>);
        return r.u32(field);
    }
}

/** Every field a forEachField visitor lists, in its order. */
template <typename Fields>
void
writeFields(net::WireWriter &w, const Fields &fields)
{
    Fields::forEachField(fields,
                         [&w](auto field) { writeField(w, field); });
}

template <typename Fields>
bool
readFields(net::WireReader &r, Fields &fields)
{
    bool ok = true;
    Fields::forEachField(
        fields, [&](auto &field) { ok = ok && readField(r, field); });
    return ok;
}

void
encodeTraceFields(net::WireWriter &w, const Trace &trace)
{
    w.str(trace.name);
    w.u32(trace.n);
    w.u64(trace.messages.size());
    for (const TraceMessage &m : trace.messages) {
        w.u64(m.id);
        w.u32(m.src);
        w.u32(m.dst);
        w.u64(m.earliest);
        w.u64(m.delayAfterDeps);
        w.u32(static_cast<std::uint32_t>(m.deps.size()));
        for (std::uint64_t dep : m.deps)
            w.u64(dep);
    }
}

/**
 * Decode + validate a trace without Trace::validate (which aborts on
 * violation — unacceptable for hostile input). Mirrors its rules:
 * dense ids, node ranges, deps reference lower ids. Every count is
 * bounded by the bytes actually remaining before any allocation.
 */
bool
decodeTraceFields(net::WireReader &r, Trace &trace)
{
    if (!r.str(trace.name) || trace.name.size() > kMaxTraceNameBytes)
        return false;
    if (!r.u32(trace.n) || trace.n < 2 || trace.n > 1024)
        return false;
    std::uint64_t count = 0;
    if (!r.u64(count) || count > r.remaining() / kMinTraceMessageBytes)
        return false;
    const std::uint64_t nodes =
        static_cast<std::uint64_t>(trace.n) * trace.n;
    trace.messages.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceMessage m;
        std::uint32_t deps = 0;
        if (!r.u64(m.id) || !r.u32(m.src) || !r.u32(m.dst) ||
            !r.u64(m.earliest) || !r.u64(m.delayAfterDeps) ||
            !r.u32(deps))
            return false;
        if (m.id != i || m.src >= nodes || m.dst >= nodes)
            return false;
        if (deps > r.remaining() / 8)
            return false;
        m.deps.reserve(deps);
        for (std::uint32_t j = 0; j < deps; ++j) {
            std::uint64_t dep = 0;
            if (!r.u64(dep) || dep >= m.id)
                return false;
            m.deps.push_back(dep);
        }
        trace.messages.push_back(std::move(m));
    }
    return true;
}

/** Length-prefixed embedded snapshot; kind must match @p kind. */
bool
decodeEmbeddedSnapshot(net::WireReader &r, SnapshotKind kind,
                       Snapshot &out)
{
    std::uint64_t bytes = 0;
    if (!r.u64(bytes) || bytes > r.remaining())
        return false;
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(bytes));
    if (!r.bytes(raw.data(), raw.size()))
        return false;
    return decodeSnapshot(raw, out) && out.kind == kind;
}

} // namespace

std::vector<std::uint8_t>
encodeShardSliceRequestPayload(const ShardSliceRequest &request)
{
    net::WireWriter w;
    w.u8(static_cast<std::uint8_t>(request.kind));
    writeFields(w, request.config);
    w.u32(request.channels);
    if (request.kind == SnapshotKind::synthetic)
        writeFields(w, request.workload);
    else
        encodeTraceFields(w, request.trace);
    w.u64(request.sliceCycles);
    w.u64(request.runMaxCycles);
    w.u64(request.key);
    w.u8(request.hasSnapshot ? 1 : 0);
    if (request.hasSnapshot) {
        const std::vector<std::uint8_t> snap =
            encodeSnapshot(request.snapshot);
        w.u64(snap.size());
        w.bytes(snap.data(), snap.size());
    }
    return w.take();
}

bool
decodeShardSliceRequestPayload(const std::vector<std::uint8_t> &payload,
                               ShardSliceRequest &out)
{
    ShardSliceRequest request;
    net::WireReader r(payload);
    std::uint8_t kind = 0;
    if (!r.u8(kind) ||
        (kind != static_cast<std::uint8_t>(SnapshotKind::synthetic) &&
         kind != static_cast<std::uint8_t>(SnapshotKind::trace)))
        return false;
    request.kind = static_cast<SnapshotKind>(kind);
    if (!readFields(r, request.config) ||
        !validConfigOnWire(request.config) || !r.u32(request.channels))
        return false;
    // The runner's preconditions are checked here, never left to an
    // FT_FATAL or FT_ASSERT inside a daemon.
    if (request.kind == SnapshotKind::synthetic) {
        if (!readFields(r, request.workload) ||
            !validWorkloadOnWire(request.workload, request.config))
            return false;
    } else {
        if (!decodeTraceFields(r, request.trace) ||
            request.trace.n != request.config.n)
            return false;
    }
    std::uint8_t has_snapshot = 0;
    if (!r.u64(request.sliceCycles) || !r.u64(request.runMaxCycles) ||
        !r.u64(request.key) || !r.u8(has_snapshot))
        return false;
    // The slice budget bounds what one frame can make a daemon
    // compute (the request runs synchronously in the frame handler),
    // so an unbounded value is hostile by definition.
    if (request.sliceCycles < 1 ||
        request.sliceCycles > kMaxSliceCycles ||
        request.runMaxCycles < 1 || has_snapshot > 1)
        return false;
    request.hasSnapshot = has_snapshot != 0;
    // Resuming or capturing engine state needs a single-channel
    // device; only a whole synthetic run does neither.
    const std::uint32_t max_channels =
        request.kind == SnapshotKind::synthetic && request.wholeRun()
            ? 64
            : 1;
    if (request.channels < 1 || request.channels > max_channels)
        return false;
    if (request.hasSnapshot &&
        !decodeEmbeddedSnapshot(r, request.kind, request.snapshot))
        return false;
    if (!r.atEnd())
        return false;
    out = std::move(request);
    return true;
}

std::vector<std::uint8_t>
encodeShardSliceResultPayload(const ShardSliceResult &result)
{
    net::WireWriter w;
    w.u8(static_cast<std::uint8_t>(result.kind));
    w.u8(result.done ? 1 : 0);
    w.u8(result.cacheHit ? 1 : 0);
    if (result.kind == SnapshotKind::synthetic) {
        const std::vector<std::uint8_t> synth =
            encodeSynthResult(result.synth);
        w.u32(static_cast<std::uint32_t>(synth.size()));
        w.bytes(synth.data(), synth.size());
    } else {
        encodeNocStats(w, result.trace.stats);
        w.u64(result.trace.completion);
        w.u32(result.trace.pes);
        w.u8(result.trace.completed ? 1 : 0);
    }
    w.u8(result.hasSnapshot ? 1 : 0);
    if (result.hasSnapshot) {
        const std::vector<std::uint8_t> snap =
            encodeSnapshot(result.snapshot);
        w.u64(snap.size());
        w.bytes(snap.data(), snap.size());
    }
    return w.take();
}

bool
decodeShardSliceResultPayload(const std::vector<std::uint8_t> &payload,
                              ShardSliceResult &out)
{
    ShardSliceResult result;
    net::WireReader r(payload);
    std::uint8_t kind = 0, done = 0, cache_hit = 0;
    // Only a whole run, which is always done, can be a cache hit.
    if (!r.u8(kind) ||
        (kind != static_cast<std::uint8_t>(SnapshotKind::synthetic) &&
         kind != static_cast<std::uint8_t>(SnapshotKind::trace)) ||
        !r.u8(done) || done > 1 || !r.u8(cache_hit) ||
        cache_hit > done)
        return false;
    result.kind = static_cast<SnapshotKind>(kind);
    result.done = done != 0;
    result.cacheHit = cache_hit != 0;
    if (result.kind == SnapshotKind::synthetic) {
        std::uint32_t bytes = 0;
        if (!r.u32(bytes) || bytes == 0 || bytes > r.remaining())
            return false;
        std::vector<std::uint8_t> raw(bytes);
        if (!r.bytes(raw.data(), raw.size()) ||
            !decodeSynthResult(raw, result.synth))
            return false;
    } else {
        std::uint8_t completed = 0;
        if (!decodeNocStats(r, result.trace.stats) ||
            !r.u64(result.trace.completion) ||
            !r.u32(result.trace.pes) || !r.u8(completed) ||
            completed > 1)
            return false;
        result.trace.completed = completed != 0;
    }
    std::uint8_t has_snapshot = 0;
    if (!r.u8(has_snapshot) || has_snapshot > 1)
        return false;
    result.hasSnapshot = has_snapshot != 0;
    // An unfinished slice must hand the continuation over; a finished
    // one must not — anything else is a lying peer.
    if (result.hasSnapshot == result.done)
        return false;
    if (result.hasSnapshot &&
        !decodeEmbeddedSnapshot(r, result.kind, result.snapshot))
        return false;
    if (!r.atEnd())
        return false;
    out = std::move(result);
    return true;
}

const char *
runSliceLocally(const ShardSliceRequest &request, ShardSliceResult &out)
{
    out = ShardSliceResult{};
    out.kind = request.kind;
    Cycle consumed = 0;
    if (request.hasSnapshot) {
        if (request.snapshot.cycle() < request.snapshot.runStart)
            return "slice snapshot predates its run start";
        consumed = request.snapshot.cycle() - request.snapshot.runStart;
    }
    if (consumed >= request.runMaxCycles)
        return "slice starts at or past runMaxCycles";

    auto noc = makeNoc(request.config, request.channels);
    Snapshot next;
    RunRequest run;
    run.device = noc.get();
    if (request.kind == SnapshotKind::synthetic)
        run.workload = &request.workload;
    else
        run.trace = &request.trace;
    // sliceCycles is decode-bounded (kMaxSliceCycles) but consumed is
    // only bounded by runMaxCycles, so the sum must saturate.
    run.sim.maxCycles =
        std::min(request.runMaxCycles,
                 saturatingAddCycles(consumed, request.sliceCycles));
    run.sim.resumeSnapshot =
        request.hasSnapshot ? &request.snapshot : nullptr;
    run.sim.captureFinal = &next;
    const RunResult res = runSim(run);
    // runSim degrades a rejected snapshot to a fresh run — right for
    // an interactive resume, wrong for a slice whose stats would then
    // double-count the run's start. Fail loudly instead.
    if (request.hasSnapshot && !res.resumed)
        return "slice snapshot was not restorable";
    if (!res.finalCaptured)
        return "slice state capture failed";

    out.synth = res.synth;
    out.trace = res.trace;
    const Cycle advanced = next.cycle() - next.runStart;
    out.done = (request.kind == SnapshotKind::trace
                    ? res.trace.completed
                    : res.synth.completed) ||
               advanced >= request.runMaxCycles;
    if (!out.done) {
        // The handoff contract: the next slice resumes the traffic
        // mid-flight but measures only itself (docs/checkpoint.md).
        next.trimState();
        out.hasSnapshot = true;
        out.snapshot = std::move(next);
    }
    return nullptr;
}

// --- Sharded runs --------------------------------------------------

namespace {

/**
 * Client-side validation of a remote slice answer — the mirror of
 * the daemon's own range checks plus an actual restore probe. A
 * decoded snapshot is internally consistent but nothing ties it to
 * *this* run's geometry, and committing an unrestorable one would
 * poison every later slice: daemons reject the chain, and the local
 * fallback cannot resume it either. Validating here keeps a hostile
 * or buggy daemon at the cost of one failed attempt — never a dead
 * fleet, never a dead process. On success the answer's snapshot is
 * left trimmed, so the probe restored exactly the bytes the next
 * slice will.
 */
bool
validateSliceAnswer(const RunRequest &request, SnapshotKind kind,
                    Cycle consumed, const ShardSliceRequest &slice,
                    ShardSliceResult &answer)
{
    if (answer.kind != kind)
        return false;
    if (answer.done)
        return true; // stats-only; no snapshot travels (decode pins)
    // Range checks first, and in this order — without the runStart
    // bound (which only the daemon used to check), a hostile
    // cycle() < runStart snapshot wraps the unsigned delta into a
    // huge "advance" that sails past every later comparison.
    if (answer.snapshot.cycle() < answer.snapshot.runStart)
        return false;
    const Cycle advanced =
        answer.snapshot.cycle() - answer.snapshot.runStart;
    // The run must have moved (or a lying daemon pins an infinite
    // slice loop), must not claim more than the slice's budget, and
    // an unfinished run must still be short of the whole-run guard.
    if (advanced <= consumed ||
        advanced > saturatingAddCycles(consumed, slice.sliceCycles) ||
        advanced >= slice.runMaxCycles)
        return false;
    answer.snapshot.trimState();
    auto probe = makeNoc(*request.config, 1);
    if (!probe->restoreState(answer.snapshot.engine))
        return false;
    if (kind == SnapshotKind::synthetic) {
        SyntheticInjector injector(*probe, *request.workload);
        return injector.restoreState(answer.snapshot.injector);
    }
    TraceReplayer replayer(*probe, *request.trace);
    return replayer.restoreState(answer.snapshot.replay);
}

} // namespace

RunResult
runShardedSim(const RunRequest &request, Cycle shard_cycles)
{
    if ((request.workload != nullptr) == (request.trace != nullptr))
        FT_FATAL("runShardedSim needs exactly one of workload / trace");
    if (request.device || !request.config)
        FT_FATAL("runShardedSim needs a config-built run (no device)");
    if (request.channels != 1)
        FT_FATAL("runShardedSim requires a single-channel device "
                 "(engine-state capture)");
    if (request.useCache || request.sim.telemetry ||
        request.sim.snapshotEveryCycles != 0 ||
        !request.sim.resumeFrom.empty() || request.sim.resumeSnapshot ||
        request.sim.captureFinal)
        FT_FATAL("runShardedSim owns the cache/telemetry/snapshot "
                 "knobs; clear them on the request");
    if (shard_cycles < 1 || shard_cycles > kMaxSliceCycles)
        FT_FATAL("runShardedSim needs 1 <= shard_cycles <= ",
                 kMaxSliceCycles);

    const bool is_trace = request.trace != nullptr;
    const SnapshotKind kind =
        is_trace ? SnapshotKind::trace : SnapshotKind::synthetic;
    const RemoteConfig cfg = remoteConfig();
    RunCounters run;

    ShardSliceRequest slice;
    slice.kind = kind;
    slice.config = *request.config;
    slice.channels = 1;
    if (is_trace) {
        slice.trace = *request.trace;
        slice.key = checkpointKey(*request.config, request.channels,
                                  *request.trace);
    } else {
        slice.workload = *request.workload;
        slice.key = checkpointKey(*request.config, request.channels,
                                  *request.workload);
    }
    slice.sliceCycles = shard_cycles;
    slice.runMaxCycles = request.sim.maxCycles;

    RunResult result;
    result.isTrace = is_trace;
    NocStats merged;
    bool first_slice = true;
    // Once the fleet has proven dead (budget exhausted or a permanent
    // rejection), the remaining slices stay local rather than paying
    // the retry schedule once per slice.
    bool fleet_dead = cfg.endpoints.empty();
    std::size_t next_endpoint = 0;
    Cycle consumed = 0; // run-relative cycles completed so far
    // Provenance of slice.snapshot: a remote-origin snapshot, even a
    // restore-probed one, is never worth aborting the process over.
    bool snapshot_from_remote = false;
    bool done = false;

    while (!done) {
        ShardSliceResult answer;
        bool served = false;

        if (!fleet_dead) {
            std::vector<std::vector<std::uint8_t>> payloads(1);
            payloads[0] = encodeShardSliceRequestPayload(slice);
            // Trust nothing a peer says unchecked: range checks plus
            // a restore probe (validateSliceAnswer), so a hostile
            // answer is one failed attempt, not a poisoned slice
            // chain.
            const AnswerCheck accept = [&](std::size_t,
                                           ShardSliceResult &got) {
                if (!validateSliceAnswer(request, kind, consumed, slice,
                                         got))
                    return false;
                answer = std::move(got);
                return true;
            };
            unsigned failures = 0;
            while (!served && failures < cfg.maxAttempts) {
                if (failures > 0) {
                    bump(run.reconnects);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(net::backoffDelayMs(
                            failures, cfg.backoffInitialMs,
                            cfg.backoffCapMs)));
                }
                const net::Endpoint &endpoint =
                    cfg.endpoints[next_endpoint %
                                  cfg.endpoints.size()];
                ++next_endpoint; // round-robin slices and retries
                bool permanent = false;
                std::vector<std::size_t> pending{0};
                serveConnection(cfg, endpoint, pending, payloads, accept,
                                run, permanent);
                served = pending.empty();
                if (!served) {
                    if (permanent) {
                        fleet_dead = true;
                        break;
                    }
                    ++failures;
                }
            }
            if (!served)
                fleet_dead = true; // degrade to local completion
        }

        // A slice no daemon served runs here, on the daemon's own
        // slice path: same budgets, same handoff contract, so a
        // sharded run completes (identically) even with no fleet.
        if (served) {
            bump(run.slicesRemote);
        } else if (const char *why = runSliceLocally(slice, answer)) {
            if (!snapshot_from_remote)
                FT_FATAL("sharded run: local slice failed: ", why);
            // Belt and braces: a remote snapshot is probed before
            // being committed, so this should be unreachable — but
            // the contract is that fleet failure degrades to local
            // completion, never a crash, so discard the remote chain
            // and recompute the whole run locally from scratch.
            FT_WARN("sharded run: remote snapshot chain failed local "
                    "resume (", why, "); recomputing the run locally");
            fleet_dead = true;
            slice.hasSnapshot = false;
            slice.snapshot = Snapshot{};
            snapshot_from_remote = false;
            consumed = 0;
            merged = NocStats{};
            first_slice = true;
            continue;
        } else {
            bump(run.slicesFallback);
        }

        const NocStats &slice_stats =
            is_trace ? answer.trace.stats : answer.synth.stats;
        if (first_slice) {
            merged = slice_stats;
            first_slice = false;
        } else {
            merged.merge(slice_stats);
        }

        done = answer.done;
        if (done) {
            if (is_trace) {
                result.trace = answer.trace;
                result.trace.stats = merged;
            } else {
                result.synth = answer.synth;
                result.synth.stats = merged;
            }
        } else {
            consumed = answer.snapshot.cycle() -
                       answer.snapshot.runStart;
            // The handoff contract (Snapshot::trimState): the next
            // slice resumes the traffic mid-flight but measures only
            // itself, so the per-slice stats merge back to the whole.
            answer.snapshot.trimState();
            slice.snapshot = std::move(answer.snapshot);
            slice.hasSnapshot = true;
            snapshot_from_remote = served;
        }
    }

    publishRun(run);
    return result;
}

} // namespace fasttrack
