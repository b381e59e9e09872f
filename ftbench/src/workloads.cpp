/**
 * @file
 * The benchmark's four workloads (why each exists: ftbench/README.md
 * and ftbench/predictions.json). Each workload function lists the
 * top-level calls of one pass in the order a user regenerating the
 * figures would make them, and the RunSpecs those calls simulate.
 */

#include <algorithm>
#include <memory>
#include <string>

#include "bench.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "sim/experiment.hpp"
#include "sim/ftd_server.hpp"
#include "sim/remote.hpp"
#include "workloads/dataflow.hpp"
#include "workloads/graph.hpp"
#include "workloads/graph_analytics.hpp"
#include "workloads/mp_overlay.hpp"
#include "workloads/sparse_matrix.hpp"
#include "workloads/spmv.hpp"

namespace ftb {

namespace {

/** The seed every paper figure is generated with. */
constexpr std::uint64_t kPaperSeed = 1;
/** Closed budget of the paper's synthetic runs (packets per PE). */
constexpr std::uint32_t kPaperPackets = 1024;
/** paper_sweep's budget: a quarter of the paper's, so one pass takes
 *  about 3 s instead of 10 s and a run's median spans several passes
 *  (two-pass medians at 1024 spread by 20-30% across runs on a shared
 *  4-CPU host). The grid itself is bench_all's. */
constexpr std::uint32_t kSweepPackets = 256;
/** Cycle guard bench/bench_trace_util.hpp gives trace replays. */
constexpr Cycle kTraceMaxCycles = 50'000'000;

/** Catalog seed for benchmark seed @p seed: the paper's own inputs at
 *  the paper seed, an independent draw otherwise. */
std::uint64_t
derivedSeed(std::uint64_t catalog_seed, std::uint64_t seed)
{
    return seed == kPaperSeed ? catalog_seed
                              : splitmix64(catalog_seed ^ seed);
}

Outcome
synthOutcome(const SynthResult &result)
{
    Outcome out;
    out.synth = result;
    return out;
}

Outcome
traceOutcome(const TraceResult &result)
{
    Outcome out;
    out.isTrace = true;
    out.trace = result;
    return out;
}

SyntheticWorkload
synthetic(TrafficPattern pattern, double rate, std::uint32_t packets,
          std::uint64_t seed)
{
    SyntheticWorkload workload;
    workload.pattern = pattern;
    workload.injectionRate = rate;
    workload.packetsPerPe = packets;
    workload.seed = seed;
    return workload;
}

/** One injectionSweep series. Per-point seeds follow injectionSweep's
 *  documented splitmix64(seed ^ point index) derivation. */
Call
sweepCall(const NocUnderTest &nut, TrafficPattern pattern,
          const std::vector<double> &rates, std::uint32_t packets,
          std::uint64_t seed)
{
    Call call;
    call.label = "injectionSweep " + nut.label + " " +
                 toString(pattern);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        call.runs.push_back(RunSpec{
            .config = nut.config,
            .channels = nut.channels,
            .workload = synthetic(
                pattern, rates[i], packets,
                splitmix64(seed ^ static_cast<std::uint64_t>(i))),
            .cached = true});
    }
    call.invoke = [nut, pattern, rates, packets, seed] {
        CallReport report;
        for (const SweepPoint &point :
             injectionSweep(nut, pattern, rates, packets, seed))
            report.outcomes.push_back(synthOutcome(point.result));
        return report;
    };
    return call;
}

/** One saturationRun point (100% offered load). */
Call
saturationCall(const NocUnderTest &nut, TrafficPattern pattern,
               std::uint32_t packets, std::uint64_t seed)
{
    Call call;
    call.label = "saturationRun " + nut.label + " " + toString(pattern);
    call.runs.push_back(RunSpec{
        .config = nut.config,
        .channels = nut.channels,
        .workload = synthetic(pattern, 1.0, packets, seed),
        .cached = true});
    call.invoke = [nut, pattern, packets, seed] {
        CallReport report;
        report.outcomes.push_back(
            synthOutcome(saturationRun(nut, pattern, packets, seed)));
        return report;
    };
    return call;
}

/** One runSim of a synthetic workload through the sweep cache. */
Call
cachedRunCall(const std::string &label, const NocConfig &config,
              const SyntheticWorkload &workload)
{
    Call call;
    call.label = "runSim " + label;
    call.runs.push_back(
        RunSpec{.config = config, .workload = workload, .cached = true});
    call.invoke = [config, workload] {
        CallReport report;
        report.outcomes.push_back(synthOutcome(
            runSim({.config = &config,
                    .workload = &workload,
                    .useCache = true})
                .synth));
        return report;
    };
    return call;
}

/** One runSim trace replay (Fig 15). */
Call
traceCall(const Trace &trace, const NocConfig &config)
{
    Call call;
    call.label = "runSim " + trace.name + " " + config.describe();
    call.runs.push_back(RunSpec{.config = config,
                                .trace = &trace,
                                .maxCycles = kTraceMaxCycles});
    const Trace *replayed = &trace;
    call.invoke = [replayed, config] {
        CallReport report;
        report.outcomes.push_back(traceOutcome(
            runSim({.config = &config,
                    .trace = replayed,
                    .sim = {.maxCycles = kTraceMaxCycles}})
                .trace));
        return report;
    };
    return call;
}

/** Counters of the remote run a call just finished. */
void
noteRemote(CallReport &report)
{
    const RemoteStats stats = remoteStats();
    report.fallbacks += stats.pointsFallback + stats.slicesFallback;
    report.slicesRemote += stats.slicesRemote;
    report.pointsRemote += stats.pointsRemote;
}

/** One runShardedSim over the configured fleet. */
Call
shardedCall(const std::string &label, const RunSpec &spec)
{
    Call call;
    call.label = "runShardedSim " + label;
    call.runs.push_back(spec);
    call.invoke = [spec] {
        RunRequest request;
        request.config = &spec.config;
        if (spec.trace)
            request.trace = spec.trace;
        else
            request.workload = &spec.workload;
        request.sim.maxCycles = spec.maxCycles;
        const RunResult result =
            runShardedSim(request, spec.shardCycles);
        CallReport report;
        report.outcomes.push_back(spec.trace
                                      ? traceOutcome(result.trace)
                                      : synthOutcome(result.synth));
        noteRemote(report);
        return report;
    };
    return call;
}

/** FastTrack candidates Fig 15 sweeps at side @p n, after Hoplite. */
std::vector<NocConfig>
fig15Configs(std::uint32_t n)
{
    std::vector<NocConfig> configs{NocConfig::hoplite(n),
                                   NocConfig::fastTrack(n, 2, 1),
                                   NocConfig::fastTrack(n, 2, 2)};
    if (n >= 8)
        configs.push_back(NocConfig::fastTrack(n, 3, 1));
    if (n >= 16)
        configs.push_back(NocConfig::fastTrack(n, 4, 1));
    return configs;
}

/** Workload state that owns synthesized traces. */
class TraceOwner : public WorkloadState
{
  public:
    /** Run trace-generator step @p make, adding its host time to
     *  traceGenMs. */
    template <typename Make>
    auto timed(Make &&make)
    {
        const std::uint64_t t0 = nowNs();
        auto made = make();
        traceGenMs += static_cast<double>(nowNs() - t0) / 1e6;
        return made;
    }

    /** Generate a trace (timed), keep it, return a stable reference. */
    template <typename Make>
    const Trace &generate(Make &&make)
    {
        traces_.push_back(std::make_unique<Trace>(timed(make)));
        traceMessages += traces_.back()->messages.size();
        return *traces_.back();
    }

  private:
    std::vector<std::unique_ptr<Trace>> traces_;
};

// --- paper_sweep ------------------------------------------------------

/** The bench_all grid (Figs 11-14, 16, 17) at 8x8, in bench_all's
 *  call order: rate sweeps, iso-wiring sweeps, saturation, the
 *  latency summary and vary-D, at kSweepPackets per PE. */
std::unique_ptr<WorkloadState>
paperSweep(std::uint64_t seed)
{
    auto state = std::make_unique<WorkloadState>();
    state->cached = true;
    const std::vector<double> rates = injectionRateGrid();
    const std::uint32_t packets = kSweepPackets;
    auto add = [&](Call call) { state->steps.push_back({std::move(call)}); };

    for (TrafficPattern pattern : kAllPatterns)
        for (const NocUnderTest &nut : standardLineup(8))
            add(sweepCall(nut, pattern, rates, packets, seed));
    for (const NocUnderTest &nut : isoWiringLineup(8))
        add(sweepCall(nut, TrafficPattern::random, rates, packets, seed));
    for (TrafficPattern pattern : kAllPatterns)
        for (const NocUnderTest &nut : isoWiringLineup(8))
            add(saturationCall(nut, pattern, packets, seed));
    for (const NocUnderTest &nut : standardLineup(8))
        add(cachedRunCall(
            "latency " + nut.label, nut.config,
            synthetic(TrafficPattern::random, 0.08, packets, seed)));

    const std::uint32_t sides[] = {4, 8, 16};
    for (bool depopulated : {false, true}) {
        for (std::uint32_t d = 0; d <= 8; ++d) {
            for (std::uint32_t n : sides) {
                if (d > n / 2 || (depopulated && d > 1 && n % d != 0))
                    continue;
                const NocConfig config =
                    d == 0 ? NocConfig::hoplite(n)
                           : NocConfig::fastTrack(n, d,
                                                  depopulated ? d : 1);
                add(cachedRunCall(
                    "vary-D " + config.describe(), config,
                    synthetic(TrafficPattern::random, 0.5,
                              n >= 16 ? packets / 4 : packets, seed)));
            }
        }
    }
    return state;
}

// --- saturation_16x16 ---------------------------------------------------

/** Five 256-PE devices under four patterns at 100% offered load, all
 *  twenty points dispatched on the pool at once. */
std::unique_ptr<WorkloadState>
saturation16(std::uint64_t seed)
{
    auto state = std::make_unique<WorkloadState>();
    state->cached = true;
    const std::vector<NocUnderTest> devices = {
        {"FT(256,2,1)", NocConfig::fastTrack(16, 2, 1), 1},
        {"FT(256,2,2)", NocConfig::fastTrack(16, 2, 2), 1},
        {"FT(256,4,1)", NocConfig::fastTrack(16, 4, 1), 1},
        {"Hoplite", NocConfig::hoplite(16), 1},
        {"Hoplite-3x", NocConfig::hoplite(16), 3},
    };
    Step step;
    for (TrafficPattern pattern : kAllPatterns)
        for (const NocUnderTest &nut : devices)
            step.push_back(
                saturationCall(nut, pattern, kPaperPackets, seed));
    state->steps.push_back(std::move(step));
    return state;
}

// --- accel_traces -------------------------------------------------------

/** Fig 15 replays at 8x8 and 16x16: every SpMV, graph, LU-dataflow and
 *  PARSEC-overlay catalog entry on Hoplite and the FastTrack
 *  candidates. One step per trace, as the Fig 15 benches dispatch. */
std::unique_ptr<WorkloadState>
accelTraces(std::uint64_t seed)
{
    auto state = std::make_unique<TraceOwner>();
    const std::uint32_t sides[] = {8, 16};
    std::vector<const Trace *> traces;

    for (MatrixParams params : spmvCatalog()) {
        params.seed = derivedSeed(params.seed, seed);
        const SparseMatrix matrix =
            state->timed([&] { return generateMatrix(params); });
        for (std::uint32_t n : sides)
            traces.push_back(&state->generate(
                [&] { return spmvTrace(matrix, n); }));
    }
    for (GraphBenchmark params : graphCatalog()) {
        params.seed = derivedSeed(params.seed, seed);
        const Graph graph = state->timed([&] { return params.build(); });
        for (std::uint32_t n : sides)
            traces.push_back(&state->generate([&] {
                return graphPushTrace(graph, n, defaultPartition(params));
            }));
    }
    for (LuDagParams params : luCatalog()) {
        params.seed = derivedSeed(params.seed, seed);
        const DataflowDag dag =
            state->timed([&] { return sparseLuDag(params); });
        for (std::uint32_t n : sides)
            traces.push_back(
                &state->generate([&] { return dataflowTrace(dag, n); }));
    }
    for (ParsecBenchmark params : parsecCatalog()) {
        params.seed = derivedSeed(params.seed, seed);
        for (std::uint32_t n : sides)
            traces.push_back(&state->generate(
                [&] { return mpOverlayTrace(params, n, 32); }));
    }

    for (const Trace *trace : traces) {
        Step step;
        for (const NocConfig &config : fig15Configs(trace->n))
            step.push_back(traceCall(*trace, config));
        state->steps.push_back(std::move(step));
    }
    return state;
}

// --- remote_fleet -------------------------------------------------------

/** Two in-process ftd daemons on loopback, installed as the remote
 *  fleet for the life of the state. */
class FleetState : public TraceOwner
{
  public:
    FleetState()
    {
        RemoteConfig remote;
        for (auto &daemon : daemons_) {
            daemon = std::make_unique<FtdServer>();
            std::string error;
            if (!daemon->start(error))
                FT_FATAL("ftbench: daemon failed to start: ", error);
            remote.endpoints.push_back(
                net::Endpoint{"127.0.0.1", daemon->boundPort()});
        }
        // Every point crosses the wire: the daemons share this
        // process's sweep cache, so a client-side pre-pass would
        // answer locally.
        remote.useLocalCache = false;
        setRemoteConfig(std::move(remote));
    }
    ~FleetState() override
    {
        clearRemoteConfig();
        for (auto &daemon : daemons_)
            daemon->stop();
    }
    FleetState(const FleetState &) = delete;
    FleetState &operator=(const FleetState &) = delete;

    std::uint64_t netSessions() const override
    {
        std::uint64_t total = 0;
        for (const auto &daemon : daemons_)
            total += daemon->netStats().sessionsAccepted;
        return total;
    }
    std::uint64_t netFrames() const override
    {
        std::uint64_t total = 0;
        for (const auto &daemon : daemons_) {
            const net::ServerStats stats = daemon->netStats();
            total += stats.framesIn + stats.framesOut;
        }
        return total;
    }

  private:
    std::unique_ptr<FtdServer> daemons_[2];
};

/** Three sharded runs (16x16 at a low and a saturating rate, one LU
 *  dataflow trace) of about four slices each, then one remote sweep. */
std::unique_ptr<WorkloadState>
remoteFleet(std::uint64_t seed)
{
    auto state = std::make_unique<FleetState>();
    state->remote = true;
    const NocConfig ft256 = NocConfig::fastTrack(16, 2, 1);
    auto add = [&](Call call) { state->steps.push_back({std::move(call)}); };

    add(shardedCall(
        "FT(256,2,1) RANDOM @0.01",
        RunSpec{.config = ft256,
                .workload = synthetic(TrafficPattern::random, 0.01, 32,
                                      seed),
                .shardCycles = 1'200}));
    add(shardedCall(
        "FT(256,2,1) RANDOM @1.0",
        RunSpec{.config = ft256,
                .workload = synthetic(TrafficPattern::random, 1.0, 256,
                                      seed),
                .shardCycles = 400}));

    LuDagParams params = luCatalog()[2]; // s1423_2582: ~2.8k cycles
    params.seed = derivedSeed(params.seed, seed);
    const Trace &trace = state->generate(
        [&] { return dataflowTrace(sparseLuDag(params), 16); });
    add(shardedCall(trace.name + " FT(256,2,1)",
                    RunSpec{.config = ft256,
                            .trace = &trace,
                            .maxCycles = kTraceMaxCycles,
                            .shardCycles = 800}));

    Call sweep = sweepCall({"FT(64,2,1)", NocConfig::fastTrack(8, 2, 1), 1},
                           TrafficPattern::random, injectionRateGrid(),
                           kPaperPackets, seed);
    sweep.label = "remote " + sweep.label;
    sweep.invoke = [inner = std::move(sweep.invoke)] {
        CallReport report = inner();
        noteRemote(report);
        return report;
    };
    add(std::move(sweep));
    return state;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_sweep", "saturation_16x16", "accel_traces",
        "remote_fleet"};
    return names;
}

std::unique_ptr<WorkloadState>
setupWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "paper_sweep")
        return paperSweep(seed);
    if (name == "saturation_16x16")
        return saturation16(seed);
    if (name == "accel_traces")
        return accelTraces(seed);
    if (name == "remote_fleet")
        return remoteFleet(seed);
    return nullptr;
}

} // namespace ftb
