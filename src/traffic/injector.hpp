/**
 * @file
 * Synthetic open/closed-loop traffic injection: every PE generates a
 * fixed budget of packets (the paper uses 1K packets/PE) as a
 * Bernoulli process at a configured injection rate, queues them at the
 * source, and offers them to the NoC.
 */

#ifndef FT_TRAFFIC_INJECTOR_HPP
#define FT_TRAFFIC_INJECTOR_HPP

#include <array>
#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "noc/noc_device.hpp"
#include "traffic/pattern.hpp"

namespace fasttrack {

/**
 * Compact queued-packet record of the synthetic injector's source
 * backlog (and its checkpoint state). Only identity, destination and
 * the creation stamp exist before injection; materializing the full
 * Packet lazily at offer time halves the memory traffic of a deep
 * source backlog.
 */
struct PendingPacket
{
    std::uint64_t id = 0;
    Cycle created = 0;
    NodeId dst = kInvalidNode;
};

/**
 * One node's source backlog: a FIFO ring of PendingPacket whose
 * power-of-two capacity doubles when full. A drained ring keeps its
 * storage, so a lightly loaded node allocates once, on its first
 * push. Slots are raw storage written only by push_back, so growth
 * copies the live entries and nothing else.
 */
class BacklogRing
{
  public:
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }
    std::size_t capacity() const { return slots_ ? mask_ + 1 : 0; }
    const PendingPacket &front() const { return slots_[head_ & mask_]; }

    void push_back(const PendingPacket &rec)
    {
        if (size() == capacity())
            grow();
        ::new (&slots_[tail_++ & mask_]) PendingPacket(rec);
    }

    void pop_front() { ++head_; }

    /** Visit every queued entry front to back without consuming it
     *  (checkpoint capture walks the backlog this way). */
    template <typename F>
    void forEach(F &&fn) const
    {
        for (std::size_t i = head_; i != tail_; ++i)
            fn(slots_[i & mask_]);
    }

  private:
    struct Release
    {
        void operator()(PendingPacket *p) const { ::operator delete(p); }
    };

    void grow();

    std::unique_ptr<PendingPacket[], Release> slots_;
    std::size_t mask_ = 0;
    /** Free-running positions; slot = position & mask_. */
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

/** Parameters of one synthetic run. */
struct SyntheticWorkload
{
    TrafficPattern pattern = TrafficPattern::random;
    /** Packet-generation probability per PE per cycle (0..1]. */
    double injectionRate = 0.1;
    /** Closed-workload budget per PE (paper: 1024). */
    std::uint32_t packetsPerPe = 1024;
    /** LOCAL pattern neighbourhood radius. */
    std::uint32_t localRadius = 2;
    std::uint64_t seed = 1;

    /** The one field list, in key and wire order (see
     *  NocConfig::forEachField). */
    template <typename Self, typename Visit>
    static constexpr void forEachField(Self &self, Visit &&visit)
    {
        visit(self.pattern);
        visit(self.injectionRate);
        visit(self.packetsPerPe);
        visit(self.localRadius);
        visit(self.seed);
    }
};

namespace detail {

/** Fields forEachField visits; the structured binding fails to
 *  compile as soon as SyntheticWorkload's member count differs. */
consteval std::size_t
syntheticWorkloadFieldCount()
{
    SyntheticWorkload workload{};
    [[maybe_unused]] auto &[pattern, rate, packets, radius, seed] =
        workload;
    std::size_t fields = 0;
    SyntheticWorkload::forEachField(workload,
                                    [&fields](auto &) { ++fields; });
    return fields;
}

} // namespace detail

static_assert(detail::syntheticWorkloadFieldCount() == 5,
              "SyntheticWorkload::forEachField must list every field");

/**
 * Serializable state of one SyntheticInjector (sim/checkpoint.hpp):
 * the RNG stream, per-node generation budgets and source backlogs,
 * and the id/generation counters. Everything else the injector holds
 * is re-derived from the workload at construction.
 */
struct InjectorState
{
    /** xoshiro256** generator words. */
    std::array<std::uint64_t, 4> rng{};
    /** Per-node packets still to generate. */
    std::vector<std::uint32_t> remaining;
    /** Per-node source backlog, front first. */
    std::vector<std::vector<PendingPacket>> queues;
    std::uint64_t nextId = 1;
    std::uint64_t generatedTotal = 0;
};

/**
 * Drives a NocDevice with a SyntheticWorkload. Call tick() once per
 * cycle *before* the device's step(); poll done() to finish.
 */
class SyntheticInjector
{
  public:
    SyntheticInjector(NocDevice &noc, const SyntheticWorkload &workload);

    /** Generate this cycle's packets, then top up per-node offers in
     *  ascending node order. */
    void tick();

    /** All packets generated, offered, injected and delivered. */
    bool done() const;

    /** Packets still waiting in source queues (not yet offered). */
    std::uint64_t queued() const { return queuedTotal_; }
    std::uint64_t generated() const { return generatedTotal_; }
    std::uint64_t budget() const { return budgetTotal_; }

    /** Capture the injector's complete dynamic state (always
     *  succeeds; the bool mirrors the device-side convention). */
    bool captureState(InjectorState &out) const;
    /** Replay a captured state; false when the node count does not
     *  match this injector's device. Generation then continues
     *  bit-identically with the uninterrupted run. */
    bool restoreState(const InjectorState &st);

  private:
    void generate(Cycle now);
    void offer();

    NocDevice &noc_;
    SyntheticWorkload workload_;
    DestinationGenerator destGen_;
    Rng rng_;
    /** Rng::bernoulliThreshold(workload_.injectionRate). */
    std::uint64_t threshold_;
    std::vector<std::uint32_t> remaining_;
    std::vector<BacklogRing> queues_;
    std::uint64_t nextId_ = 1;
    std::uint64_t generatedTotal_ = 0;
    std::uint64_t queuedTotal_ = 0;
    std::uint64_t budgetTotal_ = 0;
};

} // namespace fasttrack

#endif // FT_TRAFFIC_INJECTOR_HPP
