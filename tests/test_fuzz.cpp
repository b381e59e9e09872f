/**
 * @file
 * Seeded mutation fuzzing of the decoders a peer or a disk can feed:
 * the run request/result codecs (sim/remote.hpp) and the checksummed
 * container (sched/container.hpp).
 *
 * The loop is deterministic — one fixed seed walks bit flips,
 * truncations, forged length fields and splices over corpora of real
 * encodings (whole-run, slice and trace requests; finished,
 * unfinished and trace results; sealed containers). Every mutant must
 * be rejected or decode to a canonical value: re-encoding it must
 * decode again and re-encode to the same bytes. A container that
 * opens must be byte-identical to the one its payload seals into. Any
 * crash, hang or sanitizer report is a finding. Iterations are
 * bounded so the suite stays well under a second.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sched/container.hpp"
#include "sim/checkpoint.hpp"
#include "sim/remote.hpp"
#include "sim/simulation.hpp"
#include "workloads/dataflow.hpp"

namespace fasttrack {
namespace {

using Bytes = std::vector<std::uint8_t>;

/** Mutants per corpus entry. */
constexpr int kMutantsPerEntry = 2000;

/** One mutation of @p corpus[pick], drawn from @p rng. */
Bytes
mutate(const std::vector<Bytes> &corpus, std::size_t pick, Rng &rng)
{
    Bytes bytes = corpus[pick];
    const auto below = [&rng](std::size_t bound) {
        return static_cast<std::size_t>(rng.nextBelow(bound));
    };
    switch (rng.nextBelow(4)) {
    case 0: { // flip 1-4 bits
        const std::size_t flips = 1 + below(4);
        for (std::size_t i = 0; i < flips && !bytes.empty(); ++i)
            bytes[below(bytes.size())] ^=
                static_cast<std::uint8_t>(1u << below(8));
        break;
    }
    case 1: // truncate
        bytes.resize(below(bytes.size() + 1));
        break;
    case 2: { // forge a 4- or 8-byte little-endian field
        const std::size_t width = rng.nextBelow(2) == 0 ? 4 : 8;
        if (bytes.size() < width)
            break;
        const std::uint64_t forged[] = {
            0,
            1,
            ~std::uint64_t{0},
            bytes.size(),
            bytes.size() + 1,
            std::uint64_t{1} << 31,
            rng.next(),
        };
        const std::uint64_t value = forged[below(std::size(forged))];
        const std::size_t at = below(bytes.size() - width + 1);
        for (std::size_t i = 0; i < width; ++i)
            bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
        break;
    }
    default: { // splice a prefix of one entry onto a suffix of another
        const Bytes &other = corpus[below(corpus.size())];
        bytes.resize(below(bytes.size() + 1));
        bytes.insert(bytes.end(),
                     other.begin() + static_cast<std::ptrdiff_t>(
                                         below(other.size() + 1)),
                     other.end());
        break;
    }
    }
    return bytes;
}

/**
 * Feed kMutantsPerEntry mutants of every corpus entry to @p decode
 * and check the canonical fixed point with @p encode. Returns how
 * many mutants decoded (a fuzzer that accepts nothing, or
 * everything, is not exploring).
 */
template <typename T>
std::size_t
fuzzCodec(const std::vector<Bytes> &corpus, std::uint64_t seed,
          const std::function<bool(const Bytes &, T &)> &decode,
          const std::function<Bytes(const T &)> &encode)
{
    for (const Bytes &entry : corpus) {
        T value;
        EXPECT_TRUE(decode(entry, value)) << "corpus must decode";
    }
    Rng rng(seed);
    std::size_t accepted = 0;
    for (std::size_t pick = 0; pick < corpus.size(); ++pick) {
        for (int i = 0; i < kMutantsPerEntry; ++i) {
            const Bytes mutant = mutate(corpus, pick, rng);
            T value;
            if (!decode(mutant, value))
                continue;
            ++accepted;
            const Bytes once = encode(value);
            T again;
            const bool redecoded = decode(once, again);
            EXPECT_TRUE(redecoded) << "entry " << pick << " mutant " << i;
            if (redecoded) {
                EXPECT_EQ(encode(again), once)
                    << "entry " << pick << " mutant " << i;
            }
        }
    }
    return accepted;
}

Snapshot
snapshotAfter(const ShardSliceRequest &request, Cycle cycles)
{
    auto noc = makeNoc(request.config, 1);
    Snapshot snap;
    RunRequest run;
    run.device = noc.get();
    if (request.kind == SnapshotKind::synthetic)
        run.workload = &request.workload;
    else
        run.trace = &request.trace;
    run.sim.maxCycles = cycles;
    run.sim.captureFinal = &snap;
    EXPECT_TRUE(runSim(run).finalCaptured);
    snap.trimState();
    return snap;
}

/** Whole-run, slice and trace requests, with and without snapshots. */
std::vector<ShardSliceRequest>
requestCorpus()
{
    ShardSliceRequest whole;
    whole.config = NocConfig::fastTrack(4, 2, 1);
    whole.channels = 2;
    whole.workload.injectionRate = 0.4;
    whole.workload.packetsPerPe = 16;
    whole.sliceCycles = whole.runMaxCycles = 50'000;
    whole.key = checkpointKey(whole.config, 2, whole.workload);

    ShardSliceRequest slice = whole;
    slice.channels = 1;
    slice.workload.pattern = TrafficPattern::local;
    slice.sliceCycles = 24;
    slice.key = checkpointKey(slice.config, 1, slice.workload);
    slice.snapshot = snapshotAfter(slice, 24);
    slice.hasSnapshot = true;

    ShardSliceRequest trace;
    trace.kind = SnapshotKind::trace;
    trace.config = NocConfig::hoplite(4);
    trace.trace =
        dataflowTrace(sparseLuDag({"fuzz_lu", 40, 8.0, 1.8, 3, 5}), 4);
    trace.sliceCycles = 16;
    trace.runMaxCycles = 50'000;
    trace.key = checkpointKey(trace.config, 1, trace.trace);
    ShardSliceRequest trace_slice = trace;
    trace_slice.snapshot = snapshotAfter(trace, 16);
    trace_slice.hasSnapshot = true;
    return {whole, slice, trace, trace_slice};
}

TEST(Fuzz, RunRequestDecoderRejectsOrRoundTrips)
{
    std::vector<Bytes> corpus;
    for (const ShardSliceRequest &request : requestCorpus())
        corpus.push_back(encodeShardSliceRequestPayload(request));
    const std::size_t accepted = fuzzCodec<ShardSliceRequest>(
        corpus, 0x5eed0001, decodeShardSliceRequestPayload,
        encodeShardSliceRequestPayload);
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, corpus.size() * kMutantsPerEntry);
}

TEST(Fuzz, RunResultDecoderRejectsOrRoundTrips)
{
    const std::vector<ShardSliceRequest> requests = requestCorpus();
    ShardSliceResult whole;
    whole.done = true;
    whole.cacheHit = true;
    whole.synth = runSynthetic(requests[0].config, 2,
                               requests[0].workload);

    ShardSliceResult unfinished;
    unfinished.synth = runSynthetic(requests[1].config, 1,
                                    requests[1].workload,
                                    SimConfig{.maxCycles = 24});
    unfinished.hasSnapshot = true;
    unfinished.snapshot = requests[1].snapshot;

    ShardSliceResult trace;
    trace.kind = SnapshotKind::trace;
    trace.hasSnapshot = true;
    trace.snapshot = requests[3].snapshot;
    trace.trace.pes = 16;

    std::vector<Bytes> corpus;
    for (const ShardSliceResult &result : {whole, unfinished, trace})
        corpus.push_back(encodeShardSliceResultPayload(result));
    const std::size_t accepted = fuzzCodec<ShardSliceResult>(
        corpus, 0x5eed0002, decodeShardSliceResultPayload,
        encodeShardSliceResultPayload);
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, corpus.size() * kMutantsPerEntry);
}

TEST(Fuzz, ContainerOpenRejectsOrIsExact)
{
    const sched::ContainerId id{kCheckpointMagic, kCheckpointSchema,
                                0x0123456789abcdefull};
    const std::vector<ShardSliceRequest> requests = requestCorpus();
    const std::vector<Bytes> corpus = {
        sched::sealContainer(id, encodeSnapshot(requests[1].snapshot)),
        sched::sealContainer(id, encodeSnapshot(requests[3].snapshot)),
        sched::sealContainer(id, {1, 2, 3}),
        sched::sealContainer(id, {}),
    };
    Rng rng(0x5eed0003);
    std::size_t opened = 0;
    for (std::size_t pick = 0; pick < corpus.size(); ++pick) {
        for (int i = 0; i < kMutantsPerEntry; ++i) {
            const Bytes mutant = mutate(corpus, pick, rng);
            Bytes payload;
            if (sched::openContainer(mutant, id, payload) !=
                sched::ContainerStatus::ok)
                continue;
            ++opened;
            EXPECT_EQ(sched::sealContainer(id, payload), mutant)
                << "entry " << pick << " mutant " << i;
        }
    }
    // Only mutations that change nothing (a splice of an entry onto
    // itself, a forged field equal to the old value) may open.
    EXPECT_LT(opened, corpus.size() * kMutantsPerEntry / 4);
}

} // namespace
} // namespace fasttrack
