/**
 * @file
 * ftbench: the repository benchmark (ftbench/README.md).
 *
 *   ftbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--golden FILE] [--write-golden FILE] [--trace-out FILE]
 *           [--perturb]
 *
 * One process per workload. Set-up is repeated and its median is
 * setup_s; then untraced passes of the workload run back to back for
 * S seconds, each from a cold sweep cache, and the end-to-end metrics
 * are medians over them. With --trace 1 a traced pass follows and
 * the per-layer metrics come from its spans. Results are gated
 * outside the timed phase: pinned digests at the paper seed, and at
 * every seed pass-to-pass, cold-vs-warm, traced-vs-untraced and
 * remote-vs-local equality. The last stdout line is one JSON object
 * {correct, attempted, failed, metrics}; a failed gate exits 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/fnv1a.hpp"
#include "common/parallel.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/sweep_cache.hpp"
#include "spans.hpp"
#include "traced.hpp"

using namespace ftb;

namespace {

/** FNV-1a over every NocStats counter and histogram bucket plus the
 *  simulated cycles (synthetic) or the completion cycle (trace) and
 *  the completion flag: the per-result digest the gate compares. */
std::uint64_t
digest(const Outcome &outcome)
{
    const NocStats &s = outcome.stats();
    Fnv1a h;
    for (std::uint64_t v :
         {s.injected, s.delivered, s.selfDelivered, s.shortHopTraversals,
          s.expressHopTraversals, s.laneDeflections, s.exitBlocked,
          s.injectionBlockedCycles})
        h.add(v);
    for (std::uint64_t v : s.deflectionsByPort)
        h.add(v);
    for (std::uint64_t v : s.misroutesByPort)
        h.add(v);
    for (const Histogram *hist : {&s.totalLatency, &s.networkLatency,
                                  &s.hopCount, &s.deflectionCount}) {
        h.add(hist->count());
        for (const auto &[value, count] : hist->bins()) {
            h.add(value);
            h.add(count);
        }
    }
    h.add(outcome.isTrace ? outcome.trace.completion
                          : outcome.synth.cycles);
    h.add(outcome.completed() ? 1 : 0);
    return h.value();
}

/** The seed whose digests are pinned (the paper's own). */
constexpr std::uint64_t kGoldenSeed = 1;
/** Set-up repeats at least kMinSetups times and until kSetupBudgetS
 *  is spent (at most kMaxSetups); setup_s is the median. Cheap set-ups
 *  take many samples, so their median is steady. */
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 501;
constexpr double kSetupBudgetS = 0.5;

struct Options
{
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string golden;
    std::string writeGolden;
    std::string traceOut;
    bool perturb = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ftbench: " << why
              << "\nusage: ftbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--golden FILE] [--write-golden FILE] "
                 "[--trace-out FILE] [--perturb]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--perturb") {
            opt.perturb = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = value == "1";
            } else if (arg == "--golden") {
                opt.golden = value;
            } else if (arg == "--write-golden") {
                opt.writeGolden = value;
            } else if (arg == "--trace-out") {
                opt.traceOut = value;
            } else {
                usage("unknown flag " + arg);
            }
        } catch (const std::exception &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        usage("unknown workload " + opt.workload);
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** Linear-interpolated quantile (0..1) of @p values. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (rank - static_cast<double>(lo));
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The RunSpecs of one pass in result order, with their calls. */
struct Layout
{
    std::vector<const RunSpec *> runs;
    std::vector<std::string> labels;
    /** Index of the first run of each call, per step. */
    std::vector<std::vector<std::size_t>> firstRun;
    std::size_t calls = 0;
};

Layout
layoutOf(const WorkloadState &state)
{
    Layout layout;
    for (const Step &step : state.steps) {
        layout.firstRun.emplace_back();
        for (const Call &call : step) {
            layout.firstRun.back().push_back(layout.runs.size());
            ++layout.calls;
            for (std::size_t i = 0; i < call.runs.size(); ++i) {
                layout.runs.push_back(&call.runs[i]);
                layout.labels.push_back(call.label + " #" +
                                        std::to_string(i));
            }
        }
    }
    return layout;
}

/** Pool and cache counters, for deltas around a pass. */
struct Counters
{
    sched::WorkStealingPool::Stats pool;
    sched::BlobCache::Stats cache;
    std::uint64_t sessions = 0;
    std::uint64_t frames = 0;

    static Counters read(const WorkloadState &state)
    {
        return {sched::WorkStealingPool::global().stats(),
                sweepCache().stats(), state.netSessions(),
                state.netFrames()};
    }
};

/** One untraced pass (or warm replay) of the workload. */
struct PassResult
{
    double wallS = 0.0;
    std::vector<double> callMs;
    /** Per run: result digest and completion (results themselves are
     *  not kept, so memory does not grow with the pass count). */
    std::vector<std::uint64_t> digests;
    std::vector<char> completed;
    /** Per run: the remote path fell back to local compute. */
    std::vector<char> fellBack;
    std::uint64_t slicesRemote = 0;
    std::uint64_t pointsRemote = 0;
    double shardedMs = 0.0;
    Counters before, after;
};

struct TimedReport
{
    CallReport report;
    double ms = 0.0;
};

TimedReport
timedInvoke(const Call &call)
{
    const std::uint64_t t0 = nowNs();
    TimedReport out{call.invoke(), 0.0};
    out.ms = static_cast<double>(nowNs() - t0) / 1e6;
    return out;
}

/** One pass over every step. @p perturb moves one histogram bucket of
 *  the first result before it is digested (the gate's self-test). */
PassResult
runPass(const WorkloadState &state, const Layout &layout, bool perturb)
{
    PassResult pass;
    pass.digests.resize(layout.runs.size());
    pass.completed.resize(layout.runs.size());
    pass.fellBack.assign(layout.runs.size(), 0);
    pass.before = Counters::read(state);
    const std::uint64_t t0 = nowNs();
    for (std::size_t s = 0; s < state.steps.size(); ++s) {
        const Step &step = state.steps[s];
        std::vector<TimedReport> reports =
            step.size() == 1
                ? std::vector<TimedReport>{timedInvoke(step.front())}
                : parallelMap(step, timedInvoke, 0, "ftbench step");
        for (std::size_t c = 0; c < step.size(); ++c) {
            TimedReport &r = reports[c];
            const std::size_t first = layout.firstRun[s][c];
            pass.callMs.push_back(r.ms);
            for (std::size_t i = 0; i < r.report.outcomes.size(); ++i) {
                Outcome &o = r.report.outcomes[i];
                if (perturb && first + i == 0)
                    (o.isTrace ? o.trace.stats : o.synth.stats)
                        .totalLatency.add(1);
                pass.digests[first + i] = digest(o);
                pass.completed[first + i] = o.completed() ? 1 : 0;
            }
            const std::size_t failed_runs = std::min<std::size_t>(
                r.report.fallbacks, step[c].runs.size());
            for (std::size_t i = 0; i < failed_runs; ++i)
                pass.fellBack[first + i] = 1;
            pass.slicesRemote += r.report.slicesRemote;
            pass.pointsRemote += r.report.pointsRemote;
            if (step[c].runs.front().shardCycles != 0)
                pass.shardedMs += r.ms; // toward net.slice_ms
        }
    }
    pass.wallS = seconds(nowNs() - t0);
    pass.after = Counters::read(state);
    return pass;
}

/** The traced pass: every run re-driven through runTraced, dispatched
 *  like the untraced pass (one call inline, a step on the pool). */
struct TracedPass
{
    double wallS = 0.0;
    std::vector<TracedRun> runs;
    std::vector<Outcome> warm;
    std::vector<char> warmOk;
    SpanRecorder spans;
};

void
runTracedPass(const WorkloadState &state, const Layout &layout,
              TracedPass &out)
{
    sweepCache().clearMemory();
    out.runs.resize(layout.runs.size());
    const std::uint64_t t0 = nowNs();
    std::size_t next = 0;
    for (const Step &step : state.steps) {
        std::vector<std::size_t> indices;
        for (const Call &call : step)
            for (std::size_t i = 0; i < call.runs.size(); ++i)
                indices.push_back(next++);
        const auto drive = [&](std::size_t index) {
            return runTraced(*layout.runs[index], index, out.spans);
        };
        const std::vector<TracedRun> runs =
            indices.size() == 1
                ? std::vector<TracedRun>{drive(indices.front())}
                : parallelMap(indices, drive, 0, "ftbench traced");
        for (std::size_t i = 0; i < indices.size(); ++i)
            out.runs[indices[i]] = runs[i];
    }
    out.wallS = seconds(nowNs() - t0);

    out.warm.resize(layout.runs.size());
    out.warmOk.assign(layout.runs.size(), 1);
    for (std::size_t i = 0; i < layout.runs.size(); ++i)
        if (layout.runs[i]->cached)
            out.warmOk[i] =
                replayTraced(*layout.runs[i], i, out.spans, out.warm[i]);
}

/** @p spec as one plain local runSim (no cache, no fleet). */
Outcome
runLocally(const RunSpec &spec)
{
    RunRequest request{.config = &spec.config,
                       .channels = spec.channels,
                       .sim = {.maxCycles = spec.maxCycles}};
    Outcome out;
    if (spec.trace) {
        request.trace = spec.trace;
        out.isTrace = true;
        out.trace = runSim(request).trace;
    } else {
        request.workload = &spec.workload;
        out.synth = runSim(request).synth;
    }
    return out;
}

/** Pinned digests: "workload index digest label" per line. */
std::map<std::size_t, std::uint64_t>
readGolden(const std::string &path, const std::string &workload)
{
    std::map<std::size_t, std::uint64_t> pins;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, hex;
        std::size_t index = 0;
        if (fields >> name >> index >> hex && name == workload)
            pins[index] = std::stoull(hex, nullptr, 16);
    }
    return pins;
}

bool
writeGolden(const std::string &path, const std::string &workload,
            const Layout &layout, const std::vector<std::uint64_t> &digests)
{
    // Keep the other workloads' pins; replace this one's.
    std::vector<std::string> kept;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            if (line.rfind(workload + " ", 0) != 0)
                kept.push_back(line);
    }
    std::ofstream out(path);
    for (const std::string &line : kept)
        out << line << "\n";
    for (std::size_t i = 0; i < digests.size(); ++i) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(digests[i]));
        out << workload << " " << i << " " << hex << " "
            << layout.labels[i] << "\n";
    }
    return static_cast<bool>(out);
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Printed after the unit (percentile and sample count). */
    std::string note;
};

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::cout << "metric " << m.name << " = " << m.value << " "
                  << m.unit;
        if (!m.note.empty())
            std::cout << " (" << m.note << ")";
        std::cout << "\n";
    }
}

std::string
jsonResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    return out.str();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics of one traced pass (ftbench/README.md). */
std::vector<Metric>
layerMetrics(const WorkloadState &state, const TracedPass &traced,
             const PassResult &last, double untraced_wall_s,
             double warm_replay_ms, double trace_gen_ms,
             double slice_ms)
{
    const std::vector<Span> spans = traced.spans.spans();
    const std::vector<TracedRun> &runs = traced.runs;

    struct Sums
    {
        double routerCycles = 0, nodeCycles = 0, cycles = 0;
        double loopNs = 0, tickNs = 0, stepNs = 0, replayNs = 0;
    };
    // Per-run cycle weights, then span times, under a run filter.
    const auto sums = [&](const std::function<bool(const TracedRun &)>
                              &keep) {
        Sums s;
        for (const TracedRun &r : runs) {
            if (!keep(r))
                continue;
            s.cycles += static_cast<double>(r.cycles);
            s.routerCycles += static_cast<double>(r.cycles * r.routers);
            if (r.rate >= 0.0)
                s.nodeCycles += static_cast<double>(r.cycles * r.nodes);
        }
        auto totals = totalsByName(spans, [&](std::uint64_t run) {
            return keep(runs[run]);
        });
        s.loopNs = static_cast<double>(totals["loop"].totalNs);
        s.tickNs = static_cast<double>(totals["tick"].selfNs);
        s.stepNs = static_cast<double>(totals["step"].selfNs);
        s.replayNs = static_cast<double>(totals["replay"].selfNs);
        return s;
    };
    const Sums all = sums([](const TracedRun &) { return true; });
    auto totals = totalsByName(spans);

    std::uint64_t sim_cycles = 0, generated = 0, quiet = 0, snaps = 0,
                  snap_bytes = 0;
    for (const TracedRun &r : runs) {
        sim_cycles += r.cycles;
        generated += r.generated;
        quiet += r.quiescentCycles;
        snaps += r.snapshots;
        snap_bytes += r.snapshotBytes;
    }
    const auto per = [&](const char *name, double scale) {
        const NameTotals &t = totals[name];
        return ratio(static_cast<double>(t.totalNs) / scale,
                     static_cast<double>(t.spans));
    };
    const double run_ns = static_cast<double>(totals["run"].totalNs);
    const double covered =
        static_cast<double>(totals["build"].totalNs) + all.tickNs +
        all.stepNs + all.replayNs;
    double cache_ns = 0.0;
    std::uint64_t cache_ops = 0;
    for (const char *name : {"cache.key", "cache.lookup", "cache.decode",
                             "cache.encode", "cache.store"})
        cache_ns += static_cast<double>(totals[name].totalNs);
    cache_ops = totals["cache.lookup"].spans + totals["cache.store"].spans;
    double busy_ns = 0.0;
    for (const Span &s : spans)
        if (s.parent < 0 && std::strcmp(s.name, "run") == 0)
            busy_ns += static_cast<double>(s.durationNs());
    const double threads =
        static_cast<double>(parallel_detail::defaultParallelThreads());

    std::vector<Metric> m;
    m.push_back({"noc.step_ns_per_router_cycle",
                 ratio(all.stepNs, all.routerCycles), "ns"});
    m.push_back({"noc.step_share", ratio(all.stepNs, all.loopNs),
                 "fraction"});
    m.push_back({"noc.router_cycles_per_s",
                 ratio(all.routerCycles, all.loopNs / 1e9), "1/s"});
    const std::pair<const char *, double> rates[] = {
        {"0.01", 0.01}, {"0.1", 0.1}, {"0.35", 0.35}, {"1.0", 1.0}};
    for (const auto &[tag, rate] : rates) {
        const Sums at = sums([rate = rate](const TracedRun &r) {
            return std::abs(r.rate - rate) < 1e-12;
        });
        m.push_back({std::string("noc.router_cycles_per_s.rate_") + tag,
                     ratio(at.routerCycles, at.loopNs / 1e9), "1/s"});
    }
    m.push_back({"noc.build_us", per("build", 1e3), "us"});
    m.push_back({"noc.quiescent_frac",
                 ratio(static_cast<double>(quiet),
                       static_cast<double>(sim_cycles)),
                 "fraction"});
    m.push_back({"traffic.tick_ns_per_node_cycle",
                 ratio(all.tickNs, all.nodeCycles), "ns"});
    m.push_back({"traffic.tick_share", ratio(all.tickNs, all.loopNs),
                 "fraction"});
    for (const auto &[tag, rate] : rates) {
        const Sums at = sums([rate = rate](const TracedRun &r) {
            return std::abs(r.rate - rate) < 1e-12;
        });
        m.push_back(
            {std::string("traffic.tick_ns_per_node_cycle.rate_") + tag,
             ratio(at.tickNs, at.nodeCycles), "ns"});
    }
    const Sums replays =
        sums([](const TracedRun &r) { return r.rate < 0.0; });
    m.push_back({"traffic.replay_ns_per_cycle",
                 ratio(replays.replayNs, replays.cycles), "ns"});
    m.push_back({"traffic.replay_share", ratio(all.replayNs, all.loopNs),
                 "fraction"});
    m.push_back({"traffic.generated", static_cast<double>(generated),
                 "count"});
    m.push_back({"workloads.trace_gen_ms", trace_gen_ms, "ms"});
    m.push_back({"workloads.trace_messages",
                 static_cast<double>(state.traceMessages), "count"});
    m.push_back({"sim.runs", static_cast<double>(runs.size()), "count"});
    m.push_back({"sim.simulated_cycles", static_cast<double>(sim_cycles),
                 "count"});
    m.push_back({"sim.driver_overhead_frac",
                 ratio(run_ns - covered, run_ns), "fraction"});
    m.push_back({"sim.snapshot_capture_us", per("snapshot.capture", 1e3),
                 "us"});
    m.push_back({"sim.snapshot_restore_us", per("snapshot.restore", 1e3),
                 "us"});
    m.push_back({"sim.snapshot_bytes",
                 ratio(static_cast<double>(snap_bytes),
                       static_cast<double>(snaps)),
                 "bytes"});
    m.push_back({"sim.slice_codec_us",
                 ratio(static_cast<double>(totals["slice.codec"].totalNs) /
                           1e3,
                       static_cast<double>(totals["slice"].spans)),
                 "us"});
    const auto delta = [](std::uint64_t after, std::uint64_t before) {
        return static_cast<double>(after - before);
    };
    m.push_back({"sched.pool_jobs",
                 delta(last.after.pool.jobs, last.before.pool.jobs),
                 "count"});
    m.push_back({"sched.pool_tasks",
                 delta(last.after.pool.tasks, last.before.pool.tasks),
                 "count"});
    m.push_back({"sched.pool_steals",
                 delta(last.after.pool.steals, last.before.pool.steals),
                 "count"});
    m.push_back({"sched.worker_busy_frac",
                 ratio(busy_ns, traced.wallS * 1e9 * threads),
                 "fraction"});
    m.push_back({"sched.cache_hits",
                 delta(last.after.cache.hits, last.before.cache.hits),
                 "count"});
    m.push_back({"sched.cache_misses",
                 delta(last.after.cache.misses, last.before.cache.misses),
                 "count"});
    m.push_back({"sched.cache_stores",
                 delta(last.after.cache.stores, last.before.cache.stores),
                 "count"});
    m.push_back({"sched.cache_us_per_op",
                 ratio(cache_ns / 1e3, static_cast<double>(cache_ops)),
                 "us"});
    m.push_back({"sched.warm_replay_ms", warm_replay_ms, "ms"});
    m.push_back({"net.slices_remote",
                 static_cast<double>(last.slicesRemote), "count"});
    m.push_back({"net.points_remote",
                 static_cast<double>(last.pointsRemote), "count"});
    m.push_back({"net.sessions",
                 delta(last.after.sessions, last.before.sessions),
                 "count"});
    m.push_back({"net.frames",
                 delta(last.after.frames, last.before.frames), "count"});
    m.push_back({"net.slice_ms", slice_ms, "ms"});
    m.push_back({"bench.traced_minus_untraced_s",
                 traced.wallS - untraced_wall_s, "s"});
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const unsigned nproc = parallel_detail::defaultParallelThreads();
    std::cout << "# ftbench workload=" << opt.workload
              << " seed=" << opt.seed << " seconds=" << opt.seconds
              << " trace=" << (opt.trace ? 1 : 0) << "\n"
              << "# provenance seed = " << opt.seed << "\n"
              << "# provenance nproc = " << nproc << "\n"
              << "# provenance cpu = " << cpuModel() << "\n"
              << "# provenance compiler = " << FTB_COMPILER << "\n"
              << "# provenance build_type = " << FTB_BUILD_TYPE << "\n";

    // Set-up: pool start, config building, trace synthesis and daemon
    // start, repeated; the first repetition starts the global pool,
    // the others a throwaway pool of the same size. The last state is
    // the one measured. Tear-down is untimed but counts toward the
    // repetition budget (stopping a daemon takes far longer than
    // starting one).
    std::vector<double> setup_s, trace_gen_ms;
    std::unique_ptr<WorkloadState> state;
    const std::uint64_t setup_start = nowNs();
    while (setup_s.size() < kMinSetups ||
           (seconds(nowNs() - setup_start) < kSetupBudgetS &&
            setup_s.size() < kMaxSetups)) {
        state.reset();
        std::unique_ptr<sched::WorkStealingPool> throwaway;
        const std::uint64_t t0 = nowNs();
        if (setup_s.empty())
            sched::ensureGlobalPool();
        else
            throwaway = std::make_unique<sched::WorkStealingPool>(nproc);
        state = setupWorkload(opt.workload, opt.seed);
        setup_s.push_back(seconds(nowNs() - t0));
        trace_gen_ms.push_back(state->traceGenMs);
    }
    const Layout layout = layoutOf(*state);

    // Measured phase: cold passes until the time is used; each pass is
    // followed (untimed) by a warm replay where results are cached. A
    // pass starts only if it should end within --seconds, judged by
    // the one before, so a run lasts about what it was asked to.
    std::vector<PassResult> passes;
    std::vector<std::vector<std::uint64_t>> warm;
    std::vector<double> warm_ms;
    double peak_rss_mb = 0.0;
    const std::uint64_t measure_start = nowNs();
    std::uint64_t last_ns = 0;
    do {
        const std::uint64_t pass_start = nowNs();
        sweepCache().clearMemory();
        passes.push_back(
            runPass(*state, layout, opt.perturb && passes.empty()));
        // Regenerating once is what a user does; later passes only
        // add allocator churn, which would tie the high-water mark to
        // the pass count.
        if (passes.size() == 1)
            peak_rss_mb = peakRssMb();
        if (state->cached) {
            PassResult replay = runPass(*state, layout, false);
            warm_ms.push_back(replay.wallS * 1e3);
            warm.push_back(std::move(replay.digests));
        }
        last_ns = nowNs() - pass_start;
    } while (seconds(nowNs() - measure_start + last_ns) <= opt.seconds);

    // Correctness gate (outside every timed phase).
    const std::size_t runs = layout.runs.size();
    const std::vector<std::uint64_t> reference = passes.front().digests;
    std::vector<std::vector<char>> bad(passes.size(),
                                       std::vector<char>(runs, 0));
    std::map<std::string, std::uint64_t> check_failures;
    const auto fail = [&](std::size_t pass, std::size_t run,
                          const char *check) {
        bad[pass][run] = 1;
        ++check_failures[check];
    };
    for (std::size_t p = 0; p < passes.size(); ++p) {
        for (std::size_t i = 0; i < runs; ++i) {
            const std::uint64_t d = passes[p].digests[i];
            if (!passes[p].completed[i])
                fail(p, i, "incomplete run");
            if (passes[p].fellBack[i])
                fail(p, i, "remote fell back to local");
            if (d != reference[i])
                fail(p, i, "pass differs from pass 1");
            if (state->cached && warm[p][i] != d)
                fail(p, i, "warm replay differs from cold");
        }
    }
    if (opt.seed == kGoldenSeed && !opt.golden.empty() &&
        opt.writeGolden.empty()) {
        const auto pins = readGolden(opt.golden, opt.workload);
        for (std::size_t i = 0; i < runs; ++i) {
            const auto pin = pins.find(i);
            if (pin == pins.end() || pin->second != reference[i])
                for (std::size_t p = 0; p < passes.size(); ++p)
                    fail(p, i, "digest differs from the pinned one");
        }
    }
    if (state->remote) {
        for (std::size_t i = 0; i < runs; ++i)
            if (digest(runLocally(*layout.runs[i])) != reference[i])
                for (std::size_t p = 0; p < passes.size(); ++p)
                    fail(p, i, "remote differs from local");
    }

    // The first pass warms caches, allocator and page tables (on
    // accel_traces it runs about 30% slower than the rest); it is
    // timed only when it is the sole pass.
    const std::span<const PassResult> timed =
        passes.size() > 1 ? std::span(passes).subspan(1)
                          : std::span(passes);
    std::vector<double> walls, call_ms;
    double sharded_ms = 0.0;
    std::uint64_t slices_remote = 0;
    for (const PassResult &pass : timed) {
        walls.push_back(pass.wallS);
        call_ms.insert(call_ms.end(), pass.callMs.begin(),
                       pass.callMs.end());
        sharded_ms += pass.shardedMs;
        slices_remote += pass.slicesRemote;
    }
    const double untraced_wall_s = median(walls);

    std::vector<Metric> metrics;
    if (opt.trace) {
        TracedPass traced;
        runTracedPass(*state, layout, traced);
        for (std::size_t i = 0; i < runs; ++i) {
            const std::uint64_t d = digest(traced.runs[i].outcome);
            if (d != reference[i] ||
                (layout.runs[i]->cached &&
                 (!traced.warmOk[i] || digest(traced.warm[i]) != d)))
                for (std::size_t p = 0; p < passes.size(); ++p)
                    fail(p, i, "traced loop differs from the public call");
        }
        if (!opt.traceOut.empty() &&
            !traced.spans.writeChromeTrace(opt.traceOut))
            std::cerr << "ftbench: cannot write " << opt.traceOut << "\n";
        metrics = layerMetrics(*state, traced, passes.back(),
                               untraced_wall_s, median(warm_ms),
                               median(trace_gen_ms),
                               ratio(sharded_ms,
                                     static_cast<double>(slices_remote)));
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const auto &pass_bad : bad) {
        attempted += pass_bad.size();
        failed += static_cast<std::uint64_t>(
            std::count(pass_bad.begin(), pass_bad.end(), 1));
    }
    const bool correct = failed == 0;

    const std::size_t per_pass = layout.calls;
    const double tail_q =
        per_pass > 20
            ? std::floor(100.0 * static_cast<double>(per_pass - 10) /
                         static_cast<double>(per_pass))
            : 50.0;
    const std::vector<Metric> e2e = {
        {"wall_s", untraced_wall_s, "s",
         "median of " + std::to_string(timed.size()) + " passes"},
        {"setup_s", median(setup_s), "s",
         "median of " + std::to_string(setup_s.size()) + " set-ups"},
        {"call_ms_p50", median(call_ms), "ms",
         std::to_string(call_ms.size()) + " calls"},
        {"call_ms_tail", quantile(call_ms, tail_q / 100.0), "ms",
         "p" + std::to_string(static_cast<int>(tail_q)) + " of " +
             std::to_string(call_ms.size()) + " calls"},
        {"peak_rss_mb", peak_rss_mb, "MB", "after set-up and one pass"},
    };
    printMetrics(e2e);
    std::cout << "metric failed_frac = "
              << ratio(static_cast<double>(failed),
                       static_cast<double>(attempted))
              << " fraction (" << failed << " of " << attempted
              << " runs)\n";
    for (const auto &[check, count] : check_failures)
        std::cout << "# gate: " << count << " x " << check << "\n";
    if (opt.trace)
        printMetrics(metrics);

    if (!opt.writeGolden.empty() &&
        !writeGolden(opt.writeGolden, opt.workload, layout, reference)) {
        std::cerr << "ftbench: cannot write " << opt.writeGolden << "\n";
        return 1;
    }

    state.reset(); // stop daemons before the pool goes away
    std::cout << jsonResult(correct, attempted, failed,
                            opt.trace ? metrics : e2e)
              << std::endl;
    return correct ? 0 : 1;
}
