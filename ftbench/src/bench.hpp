/**
 * @file
 * Shared types of the repository benchmark (ftbench/README.md).
 *
 * A workload is a list of steps; a step is a list of top-level calls
 * dispatched together (one call inline, several on the pool); a call
 * is one public entry point of the simulator — an injectionSweep
 * series, a saturationRun point, a runSim or a runShardedSim — and
 * yields one result per simulation it performs. Every call also
 * carries the plain description of those simulations (RunSpec), so
 * the traced pass can re-drive exactly the same runs through the
 * layers' own calls and prove it did by matching result digests.
 */

#ifndef FTBENCH_BENCH_HPP
#define FTBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace ftb {

using namespace fasttrack;

/** Monotonic nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Result of one simulation, synthetic or trace (isTrace picks). */
struct Outcome
{
    bool isTrace = false;
    SynthResult synth;
    TraceResult trace;

    bool completed() const
    {
        return isTrace ? trace.completed : synth.completed;
    }
    const NocStats &stats() const
    {
        return isTrace ? trace.stats : synth.stats;
    }
};

/** One simulation as the traced pass re-drives it. */
struct RunSpec
{
    NocConfig config;
    std::uint32_t channels = 1;
    /** Synthetic workload (used when trace is null). */
    SyntheticWorkload workload;
    const Trace *trace = nullptr;
    Cycle maxCycles = kDefaultMaxCycles;
    /** Goes through the sweep cache (runSim useCache semantics). */
    bool cached = false;
    /** Run as a chain of temporal shards of this many cycles. */
    Cycle shardCycles = 0;
};

/** What one untraced call returns besides its outcomes. */
struct CallReport
{
    std::vector<Outcome> outcomes;
    /** Remote slices or points that fell back to local compute. */
    std::uint64_t fallbacks = 0;
    std::uint64_t slicesRemote = 0;
    std::uint64_t pointsRemote = 0;
};

/** One top-level call of the public API. */
struct Call
{
    std::string label;
    /** The simulations the call performs, in result order. */
    std::vector<RunSpec> runs;
    /** Perform the call through the public entry point. */
    std::function<CallReport()> invoke;
};

/** Calls dispatched together: inline when one, on the pool else. */
using Step = std::vector<Call>;

/** Per-workload state built by set-up and torn down at exit. */
class WorkloadState
{
  public:
    virtual ~WorkloadState() = default;
    std::vector<Step> steps;
    /** Cold/warm replay applies (calls go through the sweep cache). */
    bool cached = false;
    /** Calls go to the remote fleet; results must equal local runs. */
    bool remote = false;
    /** Host ms spent in the trace generators during set-up. */
    double traceGenMs = 0.0;
    std::uint64_t traceMessages = 0;

    /** Daemon frame/session counters (remote_fleet; zero else). */
    virtual std::uint64_t netSessions() const { return 0; }
    virtual std::uint64_t netFrames() const { return 0; }
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed (configs, traces, daemons). */
std::unique_ptr<WorkloadState> setupWorkload(const std::string &name,
                                             std::uint64_t seed);

} // namespace ftb

#endif // FTBENCH_BENCH_HPP
