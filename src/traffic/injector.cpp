#include "traffic/injector.hpp"

#include "common/logging.hpp"

namespace fasttrack {

void
BacklogRing::grow()
{
    constexpr std::size_t kFirstCapacity = 8;
    const std::size_t live = size();
    const std::size_t cap = slots_ ? 2 * capacity() : kFirstCapacity;
    std::unique_ptr<PendingPacket[], Release> grown(
        static_cast<PendingPacket *>(
            ::operator new(cap * sizeof(PendingPacket))));
    std::size_t out = 0;
    forEach([&](const PendingPacket &rec) {
        ::new (&grown[out++]) PendingPacket(rec);
    });
    slots_ = std::move(grown);
    mask_ = cap - 1;
    head_ = 0;
    tail_ = live;
}

SyntheticInjector::SyntheticInjector(NocDevice &noc,
                                     const SyntheticWorkload &workload)
    : noc_(noc),
      workload_(workload),
      destGen_(workload.pattern, noc.config().n, workload.localRadius),
      rng_(workload.seed),
      threshold_(Rng::bernoulliThreshold(workload.injectionRate))
{
    FT_ASSERT(workload_.injectionRate > 0.0 &&
                  workload_.injectionRate <= 1.0,
              "injection rate must be in (0, 1]: ",
              workload_.injectionRate);
    const std::uint32_t nodes = noc_.config().pes();
    remaining_.assign(nodes, workload_.packetsPerPe);
    queues_.resize(nodes);
    budgetTotal_ =
        static_cast<std::uint64_t>(nodes) * workload_.packetsPerPe;
}

void
SyntheticInjector::tick()
{
    // Generation draws from the RNG and never touches the device;
    // offers touch the device and never draw. Splitting the two keeps
    // the draw stream and the device's offer sequence those of one
    // interleaved per-node pass, since node i's offer depends only on
    // its own queue.
    if (generatedTotal_ != budgetTotal_)
        generate(noc_.now());
    if (queuedTotal_ != 0)
        offer();
}

void
SyntheticInjector::generate(Cycle now)
{
    // A local copy keeps the generator words in registers across the
    // node loop instead of reloading them through `this` per draw.
    Rng rng = rng_;
    const std::uint64_t first_id = nextId_;
    std::uint64_t id = first_id;
    const NodeId nodes = static_cast<NodeId>(queues_.size());
    for (NodeId node = 0; node < nodes; ++node) {
        if (remaining_[node] == 0 || !rng.nextBernoulli(threshold_))
            continue;
        PendingPacket rec;
        rec.id = id++;
        rec.dst = destGen_.dest(node, rng);
        rec.created = now;
        --remaining_[node];
        queues_[node].push_back(rec);
    }
    rng_ = rng;
    nextId_ = id;
    generatedTotal_ += id - first_id;
    queuedTotal_ += id - first_id;
}

void
SyntheticInjector::offer()
{
    // One virtual call per cycle instead of one per node: devices
    // backed by the engine's offer slab expose its occupancy directly.
    const std::uint8_t *pending = noc_.pendingOfferMask();
    const NodeId nodes = static_cast<NodeId>(queues_.size());
    for (NodeId node = 0; node < nodes && queuedTotal_ != 0; ++node) {
        BacklogRing &q = queues_[node];
        if (q.empty())
            continue;
        if (pending ? pending[node] != 0 : noc_.hasPendingOffer(node))
            continue;
        const PendingPacket &rec = q.front();
        Packet p;
        p.id = rec.id;
        p.src = node;
        p.dst = rec.dst;
        p.created = rec.created;
        noc_.offer(p);
        q.pop_front();
        --queuedTotal_;
    }
}

bool
SyntheticInjector::done() const
{
    return generatedTotal_ == budgetTotal_ && queuedTotal_ == 0 &&
           noc_.quiescent();
}

bool
SyntheticInjector::captureState(InjectorState &out) const
{
    out = InjectorState{};
    out.rng = rng_.state();
    out.remaining = remaining_;
    out.queues.resize(queues_.size());
    for (std::size_t node = 0; node < queues_.size(); ++node) {
        out.queues[node].reserve(queues_[node].size());
        queues_[node].forEach([&](const PendingPacket &rec) {
            out.queues[node].push_back(rec);
        });
    }
    out.nextId = nextId_;
    out.generatedTotal = generatedTotal_;
    return true;
}

bool
SyntheticInjector::restoreState(const InjectorState &st)
{
    const std::size_t nodes = remaining_.size();
    if (st.remaining.size() != nodes || st.queues.size() != nodes) {
        FT_WARN("injector-state restore refused: snapshot is for ",
                st.remaining.size(), " node(s), device has ", nodes);
        return false;
    }
    if (st.generatedTotal > budgetTotal_)
        return false;
    rng_.setState(st.rng);
    remaining_ = st.remaining;
    queues_.clear();
    queues_.resize(nodes);
    queuedTotal_ = 0;
    for (std::size_t node = 0; node < nodes; ++node) {
        for (const PendingPacket &rec : st.queues[node])
            queues_[node].push_back(rec);
        queuedTotal_ += st.queues[node].size();
    }
    nextId_ = st.nextId;
    generatedTotal_ = st.generatedTotal;
    return true;
}

} // namespace fasttrack
