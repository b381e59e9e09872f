/**
 * @file
 * The traced pass's driver: re-runs one RunSpec through the layers'
 * public calls (makeNoc, tick, step, statsSnapshot; sweepKey, the
 * sweep-cache codec and BlobCache lookup/store; captureState /
 * restoreState and the shard slice codecs), timing each layer
 * boundary into spans. It follows runSim and runShardedSim step for
 * step, so its result digests must equal the untraced pass's.
 */

#ifndef FTBENCH_TRACED_HPP
#define FTBENCH_TRACED_HPP

#include "bench.hpp"
#include "spans.hpp"

namespace ftb {

/** Counts the traced driver takes per run (times live in spans). */
struct TracedRun
{
    Outcome outcome;
    /** Injection rate of a synthetic run; negative for a trace. */
    double rate = -1.0;
    /** Cycles stepped (zero for a cache hit). */
    std::uint64_t cycles = 0;
    /** Routers stepped per cycle (PEs x channels). */
    std::uint64_t routers = 0;
    /** Injector nodes ticked per cycle (PEs). */
    std::uint64_t nodes = 0;
    /** Cycles after which the device was quiescent. */
    std::uint64_t quiescentCycles = 0;
    std::uint64_t generated = 0;
    /** Snapshots captured and their total encoded size. */
    std::uint64_t snapshots = 0;
    std::uint64_t snapshotBytes = 0;
};

/** Drive @p spec as run @p run, recording spans into @p spans. */
TracedRun runTraced(const RunSpec &spec, std::uint64_t run,
                    SpanRecorder &spans);

/** Replay @p spec from the sweep cache only (sweepKey, lookup,
 *  decode); false when the entry is missing or does not decode. */
bool replayTraced(const RunSpec &spec, std::uint64_t run,
                  SpanRecorder &spans, Outcome &out);

} // namespace ftb

#endif // FTBENCH_TRACED_HPP
