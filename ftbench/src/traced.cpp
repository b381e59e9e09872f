#include "traced.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"
#include "traffic/trace_replay.hpp"

namespace ftb {

namespace {

/** What differs between driving a synthetic and a trace run. */
template <typename Driver>
struct DriverTraits;

template <>
struct DriverTraits<SyntheticInjector>
{
    static constexpr const char *kTickSpan = "tick";
    static bool finished(const SyntheticInjector &d) { return d.done(); }
    static InjectorState &state(Snapshot &s) { return s.injector; }
    static const InjectorState &state(const Snapshot &s)
    {
        return s.injector;
    }
    /** runSyntheticCore's result fields. */
    static void result(const SyntheticInjector &d, const NocDevice &noc,
                       Cycle start, double rate, NocStats stats,
                       Outcome &out)
    {
        out.isTrace = false;
        out.synth.stats = std::move(stats);
        out.synth.cycles = noc.now() - start;
        out.synth.pes = noc.config().pes();
        out.synth.offeredRate = rate;
        out.synth.completed = d.done();
    }
};

template <>
struct DriverTraits<TraceReplayer>
{
    static constexpr const char *kTickSpan = "replay";
    static bool finished(const TraceReplayer &d) { return d.finished(); }
    static TraceReplayState &state(Snapshot &s) { return s.replay; }
    static const TraceReplayState &state(const Snapshot &s)
    {
        return s.replay;
    }
    /** runTraceCore's result fields. */
    static void result(const TraceReplayer &d, const NocDevice &noc,
                       Cycle, double, NocStats stats, Outcome &out)
    {
        out.isTrace = true;
        out.trace.stats = std::move(stats);
        out.trace.completion = d.lastDelivery();
        out.trace.pes = noc.config().pes();
        out.trace.completed = d.finished();
    }
};

std::uint64_t
generatedBy(const SyntheticInjector &d)
{
    return d.generated();
}

std::uint64_t
generatedBy(const TraceReplayer &)
{
    return 0;
}

/** Where spans of one run or slice go. */
struct SpanSite
{
    SpanRecorder &spans;
    std::int64_t parent;
    std::uint64_t run;
};

/**
 * The runSim driver loop with per-cycle tick/step timing summed into
 * one aggregate span each, laid back to back inside the loop span.
 */
template <typename Driver>
void
driveLoop(NocDevice &noc, Driver &driver, Cycle start, Cycle max_cycles,
          const SpanSite &site, TracedRun &rec)
{
    const std::uint64_t loop_start = nowNs();
    std::uint64_t tick_ns = 0;
    std::uint64_t step_ns = 0;
    std::uint64_t cycles = 0;
    std::uint64_t quiet = 0;
    while (!DriverTraits<Driver>::finished(driver) &&
           noc.now() - start < max_cycles) {
        const std::uint64_t t0 = nowNs();
        driver.tick();
        const std::uint64_t t1 = nowNs();
        noc.step();
        const std::uint64_t t2 = nowNs();
        tick_ns += t1 - t0;
        step_ns += t2 - t1;
        ++cycles;
        quiet += noc.quiescent() ? 1 : 0;
    }
    const std::int64_t loop = site.spans.add("loop", site.parent, site.run,
                                             loop_start, nowNs());
    site.spans.add(DriverTraits<Driver>::kTickSpan, loop, site.run,
                   loop_start, loop_start + tick_ns, cycles);
    site.spans.add("step", loop, site.run, loop_start + tick_ns,
                   loop_start + tick_ns + step_ns, cycles);
    rec.cycles += cycles;
    rec.quiescentCycles += quiet;
}

std::unique_ptr<NocDevice>
buildNoc(const NocConfig &config, std::uint32_t channels,
         const SpanSite &site)
{
    ScopedSpan span(site.spans, "build", site.parent, site.run);
    return makeNoc(config, channels);
}

NocStats
snapshotStats(const NocDevice &noc, const SpanSite &site)
{
    ScopedSpan span(site.spans, "stats", site.parent, site.run);
    return noc.statsSnapshot();
}

/** One uninterrupted run, as runSyntheticCore / runTraceCore. */
template <typename Driver, typename Input>
Outcome
simulateOnce(const RunSpec &spec, const Input &input,
             const SpanSite &site, TracedRun &rec)
{
    auto noc = buildNoc(spec.config, spec.channels, site);
    Driver driver(*noc, input);
    const Cycle start = noc->now();
    driveLoop(*noc, driver, start, spec.maxCycles, site, rec);
    Outcome out;
    DriverTraits<Driver>::result(driver, *noc, start,
                                 spec.workload.injectionRate,
                                 snapshotStats(*noc, site), out);
    rec.generated = generatedBy(driver);
    return out;
}

/**
 * One temporal-shard slice as the ftd daemon serves it (resume,
 * advance, capture, trim). False when the snapshot does not restore
 * or the state cannot be captured.
 */
template <typename Driver, typename Input>
bool
serveSlice(const ShardSliceRequest &request, const Input &input,
           const SpanSite &site, TracedRun &rec, ShardSliceResult &out)
{
    using Traits = DriverTraits<Driver>;
    auto noc = buildNoc(request.config, request.channels, site);
    Driver driver(*noc, input);
    Cycle start = noc->now();
    Cycle consumed = 0;
    if (request.hasSnapshot) {
        ScopedSpan span(site.spans, "snapshot.restore", site.parent,
                        site.run);
        if (!noc->restoreState(request.snapshot.engine) ||
            !driver.restoreState(Traits::state(request.snapshot)))
            return false;
        start = request.snapshot.runStart;
        consumed = request.snapshot.cycle() - start;
    }
    driveLoop(*noc, driver, start,
              std::min(request.runMaxCycles,
                       saturatingAddCycles(consumed, request.sliceCycles)),
              site, rec);

    Snapshot next;
    next.kind = request.kind;
    next.runStart = start;
    {
        ScopedSpan span(site.spans, "snapshot.capture", site.parent,
                        site.run);
        if (!noc->captureState(next.engine) ||
            !driver.captureState(Traits::state(next)))
            return false;
    }
    Outcome slice;
    Traits::result(driver, *noc, start, request.workload.injectionRate,
                   snapshotStats(*noc, site), slice);
    rec.generated = generatedBy(driver);

    out = ShardSliceResult{};
    out.kind = request.kind;
    out.synth = slice.synth;
    out.trace = slice.trace;
    out.done = slice.completed() ||
               next.cycle() - next.runStart >= request.runMaxCycles;
    if (!out.done) {
        next.trimState();
        {
            ScopedSpan span(site.spans, "snapshot.encode", site.parent,
                            site.run);
            rec.snapshotBytes += encodeSnapshot(next).size();
        }
        ++rec.snapshots;
        out.hasSnapshot = true;
        out.snapshot = std::move(next);
    }
    return true;
}

/** A runShardedSim chain driven in-process: every slice request and
 *  result goes through the wire payload codecs, as on the fleet. */
Outcome
simulateSharded(const RunSpec &spec, const SpanSite &site,
                TracedRun &rec)
{
    ShardSliceRequest request;
    request.config = spec.config;
    request.channels = 1;
    if (spec.trace) {
        request.kind = SnapshotKind::trace;
        request.trace = *spec.trace;
        request.key = checkpointKey(spec.config, 1, *spec.trace);
    } else {
        request.kind = SnapshotKind::synthetic;
        request.workload = spec.workload;
        request.key = checkpointKey(spec.config, 1, spec.workload);
    }
    request.sliceCycles = spec.shardCycles;
    request.runMaxCycles = spec.maxCycles;

    Outcome out;
    out.isTrace = spec.trace != nullptr;
    NocStats merged;
    for (bool first = true;; first = false) {
        ScopedSpan slice_span(site.spans, "slice", site.parent, site.run);
        const SpanSite slice{site.spans, slice_span.index(), site.run};
        ShardSliceRequest served;
        {
            ScopedSpan span(site.spans, "slice.codec", slice.parent,
                            slice.run);
            if (!decodeShardSliceRequestPayload(
                    encodeShardSliceRequestPayload(request), served))
                return out; // completed() stays false: a failed run
        }
        ShardSliceResult result;
        const bool ok =
            served.kind == SnapshotKind::trace
                ? serveSlice<TraceReplayer>(served, served.trace, slice,
                                            rec, result)
                : serveSlice<SyntheticInjector>(served, served.workload,
                                                slice, rec, result);
        ShardSliceResult answer;
        {
            ScopedSpan span(site.spans, "slice.codec", slice.parent,
                            slice.run);
            if (!ok || !decodeShardSliceResultPayload(
                           encodeShardSliceResultPayload(result), answer))
                return out;
        }
        const NocStats &slice_stats =
            out.isTrace ? answer.trace.stats : answer.synth.stats;
        if (first)
            merged = slice_stats;
        else
            merged.merge(slice_stats);
        if (answer.done) {
            out.synth = answer.synth;
            out.trace = answer.trace;
            (out.isTrace ? out.trace.stats : out.synth.stats) = merged;
            return out;
        }
        answer.snapshot.trimState();
        request.snapshot = std::move(answer.snapshot);
        request.hasSnapshot = true;
    }
}

/** sweepKey + lookup + decode; false on a miss. */
bool
lookupCached(const RunSpec &spec, const SpanSite &site,
             std::uint64_t &key, Outcome &out)
{
    {
        ScopedSpan span(site.spans, "cache.key", site.parent, site.run);
        key = sweepKey(spec.config, spec.channels, spec.workload,
                       spec.maxCycles);
    }
    std::optional<std::vector<std::uint8_t>> payload;
    {
        ScopedSpan span(site.spans, "cache.lookup", site.parent, site.run);
        payload = sweepCache().lookup(key);
    }
    if (!payload)
        return false;
    ScopedSpan span(site.spans, "cache.decode", site.parent, site.run);
    out = Outcome{};
    return decodeSynthResult(*payload, out.synth);
}

} // namespace

TracedRun
runTraced(const RunSpec &spec, std::uint64_t run, SpanRecorder &spans)
{
    TracedRun rec;
    rec.rate = spec.trace ? -1.0 : spec.workload.injectionRate;
    rec.nodes = spec.config.pes();
    rec.routers = rec.nodes * spec.channels;
    ScopedSpan run_span(spans, "run", -1, run);
    const SpanSite site{spans, run_span.index(), run};

    if (spec.shardCycles != 0) {
        rec.outcome = simulateSharded(spec, site, rec);
        return rec;
    }
    if (spec.trace) {
        rec.outcome =
            simulateOnce<TraceReplayer>(spec, *spec.trace, site, rec);
        return rec;
    }
    std::uint64_t key = 0;
    if (spec.cached && lookupCached(spec, site, key, rec.outcome))
        return rec;
    rec.outcome =
        simulateOnce<SyntheticInjector>(spec, spec.workload, site, rec);
    if (spec.cached) {
        std::vector<std::uint8_t> payload;
        {
            ScopedSpan span(spans, "cache.encode", site.parent, run);
            payload = encodeSynthResult(rec.outcome.synth);
        }
        ScopedSpan span(spans, "cache.store", site.parent, run);
        sweepCache().store(key, std::move(payload));
    }
    return rec;
}

bool
replayTraced(const RunSpec &spec, std::uint64_t run, SpanRecorder &spans,
             Outcome &out)
{
    ScopedSpan warm(spans, "warm", -1, run);
    std::uint64_t key = 0;
    return lookupCached(spec, SpanSite{spans, warm.index(), run}, key,
                        out);
}

} // namespace ftb
