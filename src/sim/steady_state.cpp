#include "sim/steady_state.hpp"

#include <deque>
#include <vector>

#include "common/logging.hpp"
#include "common/stats.hpp"

namespace fasttrack {

SteadyStateResult
measureSteadyState(NocDevice &noc, const SteadyStateConfig &config)
{
    FT_ASSERT(config.injectionRate > 0.0 && config.injectionRate <= 1.0,
              "injection rate out of range");
    FT_ASSERT(noc.now() == 0 && noc.quiescent(),
              "pass a fresh device to measureSteadyState");

    const std::uint32_t nodes = noc.config().pes();
    DestinationGenerator dest(config.pattern, noc.config().n,
                              config.localRadius);
    Rng rng(config.seed);
    const std::uint64_t threshold =
        Rng::bernoulliThreshold(config.injectionRate);
    std::vector<std::deque<Packet>> queues(nodes);

    const Cycle window_start = config.warmupCycles;
    const Cycle window_end = config.warmupCycles + config.measureCycles;

    SteadyStateResult result;
    RunningStat window_latency;
    std::uint64_t generation_paused = 0;

    noc.setDeliverCallback([&](const Packet &p, Cycle when) {
        if (p.created >= window_start && p.created < window_end) {
            if (when >= window_start && when < window_end)
                ++result.windowDelivered;
            window_latency.add(static_cast<double>(when - p.created));
        }
    });

    std::uint64_t next_id = 1;
    // Run warmup + window + a drain margin so most window packets
    // complete and latencies are not survivor-biased toward fast ones.
    const Cycle run_end = window_end + config.measureCycles / 2;
    while (noc.now() < run_end) {
        const Cycle now = noc.now();
        const bool generating = now < window_end;
        for (NodeId node = 0; node < nodes; ++node) {
            auto &q = queues[node];
            if (generating && rng.nextBernoulli(threshold)) {
                if (q.size() >= config.maxQueue) {
                    ++generation_paused;
                } else {
                    Packet p;
                    p.id = next_id++;
                    p.src = node;
                    p.dst = dest.dest(node, rng);
                    p.created = now;
                    if (p.created >= window_start &&
                        p.created < window_end) {
                        ++result.windowCreated;
                    }
                    q.push_back(p);
                }
            }
            if (!q.empty() && !noc.hasPendingOffer(node)) {
                noc.offer(q.front());
                q.pop_front();
            }
        }
        noc.step();
    }

    result.throughput =
        static_cast<double>(result.windowDelivered) /
        (static_cast<double>(config.measureCycles) * nodes);
    result.avgLatency = window_latency.mean();
    result.saturated = generation_paused > 0;
    return result;
}

} // namespace fasttrack
