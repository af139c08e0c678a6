#include "interconnect/crossbar.hh"

#include <utility>

#include "checkpoint/checkpoint.hh"
#include "sim/logging.hh"

namespace dsp {

/**
 * The two hot event types of the interconnect: both live in pooled
 * slots and carry only a handle to the shared payload, so a
 * fully-loaded network schedules hops without touching the heap and
 * a multicast fan-out never copies the Message.
 */
struct OrderedCrossbar::OrderEvent final : Event {
    OrderEvent(OrderedCrossbar &x, MessageRef &&m, unsigned h, Tick t,
               bool serialized)
        : xbar(x), msg(std::move(m)), hub(h), tick(t),
          serialized(serialized)
    {
    }

    void
    process() override
    {
        if (serialized) {
            // Already holds its ordering slot; run the order handler
            // and fan out at the slot tick.
            xbar.orderAndFanOut(msg, tick);
            return;
        }
        // Arrival at the ordering point: claim the next slot. The
        // spacing state (lastOrder) belongs to this hub's domain, so
        // it is applied here -- at arrival, in deterministic arrival
        // order -- not at send time in some other domain.
        HubState &point = xbar.hubs_[hub];
        Tick slot = std::max(tick, point.lastOrder + xbar.orderGap_);
        point.lastOrder = slot;
        if (slot > tick) {
            if (xbar.fuse_) {
                // Fused: consume the same key the unfused reschedule
                // would, then either take the slot inline (the gap is
                // tiny, so it usually sits inside this window) or
                // re-insert *ourselves* at it -- either way one pool
                // event serves both hops.
                std::uint64_t key = point.port.allocKey(
                    EventPriority::NetworkOrder);
                tick = slot;
                serialized = true;
                if (point.port.queue().chainAdvance(
                        slot, key, point.port.domain())) {
                    xbar.orderAndFanOut(msg, slot);
                    return;
                }
                point.port.scheduleKeyed(*this, slot, key);
                return;
            }
            point.port.schedule(
                *EventPool<OrderEvent>::instance().acquire(
                    xbar, std::move(msg), hub, slot, true),
                slot, EventPriority::NetworkOrder);
            return;
        }
        xbar.orderAndFanOut(msg, tick);
    }

    void
    release() override
    {
        EventPool<OrderEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::XbarOrder));
        w.pod(*msg);
        w.u32(hub);
        w.u64(tick);
        w.b(serialized);
    }

    OrderedCrossbar &xbar;
    MessageRef msg;
    unsigned hub;
    Tick tick;
    bool serialized;
};

struct OrderedCrossbar::DeliverEvent final : Event {
    DeliverEvent(OrderedCrossbar &x, const MessageRef &m, NodeId d,
                 Tick w, bool booked)
        : xbar(x), msg(m), dest(d), when(w), booked(booked)
    {
    }

    void
    process() override
    {
        if (!booked) {
            if (xbar.fuse_) {
                Tick start = xbar.ingressArrival(msg, dest, when);
                if (start == maxTick)
                    return;
                // Contended link: same key the unfused refire would
                // consume, then deliver inline at the link-free tick
                // or re-insert ourselves there.
                DomainPort &port = xbar.nodes_[dest].port;
                std::uint64_t key =
                    port.allocKey(EventPriority::Delivery);
                when = start;
                booked = true;
                if (port.queue().chainAdvance(start, key,
                                              port.domain())) {
                    if (xbar.onDeliver_)
                        xbar.onDeliver_(*msg, dest, start);
                    return;
                }
                port.scheduleKeyed(*this, start, key);
                return;
            }
            xbar.arriveAtDest(msg, dest, when);
            return;
        }
        if (xbar.onDeliver_)
            xbar.onDeliver_(*msg, dest, when);
    }

    void
    release() override
    {
        EventPool<DeliverEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::XbarDeliver));
        w.pod(*msg);
        w.u32(dest);
        w.u64(when);
        w.b(booked);
    }

    OrderedCrossbar &xbar;
    MessageRef msg;
    NodeId dest;
    Tick when;
    bool booked;
};

/**
 * One fan-out's deliveries bound for one shard queue. Every hop
 * shares the fan-out's delivery tick and carries the key the unfused
 * fan-out would have assigned it, so the calendar sees one insert and
 * one pop where it used to see one per destination; the later hops
 * execute inline through chainAdvance (which refuses -- and the chain
 * re-inserts itself -- whenever an unrelated event orders between two
 * hops or the window ends, reproducing the unfused total order
 * exactly).
 */
struct OrderedCrossbar::ChainEvent final : Event {
    /** Hops per chain; larger fan-outs split into several chains
     *  (still one insert+pop per maxHops destinations). */
    static constexpr unsigned maxHops = 8;

    struct Hop {
        NodeId dest;
        std::uint64_t key;
        std::uint16_t domain;
    };

    ChainEvent(OrderedCrossbar &x, const MessageRef &m, Tick w)
        : xbar(x), msg(m), when(w)
    {
    }

    void
    addHop(NodeId dest, std::uint64_t key, std::uint16_t domain,
           const EventQueue *q)
    {
        dsp_assert(count < maxHops, "chain overflow");
        // The fusion-legality contract: every hop of a chain must be
        // owned by the one shard queue the chain is scheduled on.
        dsp_assert(queue == nullptr || queue == q,
                   "fused chain spans shard queues");
        queue = q;
        hops[count++] = Hop{dest, key, domain};
    }

    void
    process() override
    {
        for (;;) {
            xbar.arriveAtDest(msg, hops[next].dest, when);
            ++next;
            if (next == count)
                return;  // the queue releases us
            const Hop &hop = hops[next];
            DomainPort &port = xbar.nodes_[hop.dest].port;
            if (!port.queue().chainAdvance(when, hop.key,
                                           hop.domain)) {
                // Something orders before this hop (or the window
                // ends here): hand the rest back to the calendar.
                port.scheduleKeyed(*this, when, hop.key);
                return;
            }
        }
    }

    void
    release() override
    {
        EventPool<ChainEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        // Only the hops still to run; restore re-splits them into
        // plain deliveries (see ckptRestoreChain).
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::XbarChain));
        w.pod(*msg);
        w.u64(when);
        w.u32(count - next);
        for (unsigned i = next; i < count; ++i) {
            w.u32(hops[i].dest);
            w.u64(hops[i].key);
            w.u16(hops[i].domain);
        }
    }

    OrderedCrossbar &xbar;
    MessageRef msg;
    Tick when;
    unsigned next = 0;
    unsigned count = 0;
    const EventQueue *queue = nullptr;
    std::array<Hop, maxHops> hops;
};

OrderedCrossbar::OrderedCrossbar(std::vector<DomainPort> hub_ports,
                                 std::vector<DomainPort> node_ports,
                                 const CrossbarParams &params)
    : params_(params),
      topo_(static_cast<NodeId>(node_ports.size()), params.topology,
            params.traversal_ns),
      orderGap_(nsToTicks(params.ordering_gap_ns)),
      fuse_(params.fuse_chains)
{
    dsp_assert(!node_ports.empty() && node_ports.size() <= maxNodes,
               "bad crossbar size %zu", node_ports.size());
    dsp_assert(hub_ports.size() == topo_.hubs(),
               "expected %u hub ports, got %zu", topo_.hubs(),
               hub_ports.size());
    for (std::size_t k = 0; k < numKinds; ++k) {
        occupancyByKind_[k] =
            occupancy(messageBytes(static_cast<MessageKind>(k)));
    }
    hubs_.resize(hub_ports.size());
    for (std::size_t h = 0; h < hub_ports.size(); ++h)
        hubs_[h].port = hub_ports[h];
    nodes_.resize(node_ports.size());
    for (std::size_t n = 0; n < node_ports.size(); ++n)
        nodes_[n].port = node_ports[n];
}

namespace {

std::vector<DomainPort>
standalonePorts(EventQueue &queue, std::size_t count)
{
    return std::vector<DomainPort>(count, DomainPort(queue));
}

} // namespace

OrderedCrossbar::OrderedCrossbar(EventQueue &queue, NodeId num_nodes,
                                 const CrossbarParams &params)
    : OrderedCrossbar(standalonePorts(queue, params.topology.hubs),
                      standalonePorts(queue, num_nodes), params)
{
}

void
OrderedCrossbar::setOrderHandler(OrderHandler handler)
{
    onOrder_ = std::move(handler);
}

void
OrderedCrossbar::setDeliverHandler(DeliverHandler handler)
{
    onDeliver_ = std::move(handler);
}

void
OrderedCrossbar::setDutyPredicate(DutyPredicate predicate)
{
    hasDuty_ = std::move(predicate);
}

void
OrderedCrossbar::scheduleDelivery(const MessageRef &msg, NodeId dest,
                                  Tick when, bool booked)
{
    nodes_[dest].port.schedule(
        *EventPool<DeliverEvent>::instance().acquire(*this, msg, dest,
                                                     when, booked),
        when, EventPriority::Delivery);
}

Tick
OrderedCrossbar::ingressArrival(const MessageRef &msg, NodeId dest,
                                Tick now)
{
    NodeState &node = nodes_[dest];
    node.traffic[static_cast<std::size_t>(msg->kind)].add(
        msg->bytes());

    // Cut-through: the head is delivered when the link becomes free;
    // the occupancy only delays *later* messages on the same link.
    Tick start = std::max(now, node.ingressFree);
    node.ingressFree = start + occupancyOf(msg->kind);
    if (start > now) {
        // A link-only delivery's booking above is its whole effect.
        // Skipping the refire drops one key from this domain's
        // sequence, which leaves every other pair of events in order.
        if (isOrdered(msg->kind) && hasDuty_ && !hasDuty_(*msg, dest))
            return maxTick;
        return start;
    }
    if (onDeliver_)
        onDeliver_(*msg, dest, now);
    return maxTick;
}

void
OrderedCrossbar::arriveAtDest(const MessageRef &msg, NodeId dest,
                              Tick now)
{
    Tick start = ingressArrival(msg, dest, now);
    if (start != maxTick)
        scheduleDelivery(msg, dest, start, true);
}

void
OrderedCrossbar::orderAndFanOut(const MessageRef &msg, Tick order)
{
    if (onOrder_)
        onOrder_(msg, order);
    // Fan out to every destination but the source; each delivery
    // shares the one pooled payload and contends for its
    // destination's ingress link on arrival. The hub sits on the
    // global tier, so the downward leg is uniform over destinations.
    Tick deliver = order + topo_.hubHop();
    if (fuse_) {
        fanOutFused(msg, deliver);
        return;
    }
    msg->dests.forEach([&](NodeId dest) {
        if (dest == msg->src)
            return;
        scheduleDelivery(msg, dest, deliver, false);
    });
}

void
OrderedCrossbar::fanOutFused(const MessageRef &msg, Tick deliver)
{
    // Keys are allocated in destination order, exactly as the unfused
    // fan-out would allocate them, then hops are grouped by owning
    // shard queue in first-appearance order. A group of one stays a
    // plain keyed delivery; a larger group becomes a ChainEvent -- one
    // calendar insert+pop for up to maxHops same-tick deliveries. The
    // grouping never changes behaviour (every hop keeps its unfused
    // (tick, key) coordinates), only how many calendar operations
    // carry the fan-out.
    struct Group {
        const EventQueue *queue;
        ChainEvent *chain;
        NodeId firstDest;
        std::uint64_t firstKey;
        std::uint16_t firstDomain;
    };
    // One slot per distinct shard queue among the destinations; a
    // fan-out can touch at most one queue per shard. Deliberately
    // uninitialized: zeroing all 64 slots per fan-out costs more than
    // the fusion saves on small destination sets, and every field of
    // a slot is written when the slot is claimed.
    Group groups[64];
    std::size_t numGroups = 0;
    constexpr std::size_t maxGroups = sizeof(groups) / sizeof(groups[0]);

    const NodeId src = msg->src;
    msg->dests.forEach([&](NodeId dest) {
        if (dest == src)
            return;
        DomainPort &port = nodes_[dest].port;
        const std::uint64_t key =
            port.allocKey(EventPriority::Delivery);
        const EventQueue *q = &port.queue();

        Group *g = nullptr;
        for (std::size_t i = 0; i < numGroups; ++i) {
            if (groups[i].queue == q) {
                g = &groups[i];
                break;
            }
        }
        if (!g) {
            if (numGroups == maxGroups) {
                // More distinct queues than slots (never in practice:
                // it needs > 64 shards in one fan-out). Degrade to a
                // plain delivery; coordinates are unchanged.
                scheduleKeyedDelivery(msg, dest, deliver, key);
                return;
            }
            g = &groups[numGroups++];
            g->queue = q;
            g->chain = nullptr;
            g->firstDest = dest;
            g->firstKey = key;
            g->firstDomain = port.domain();
            return;
        }
        if (g->chain && g->chain->count == ChainEvent::maxHops) {
            // Chain full: commit it and let this hop seed the next
            // chain on the same queue.
            scheduleChain(*g->chain, deliver);
            g->chain = nullptr;
            g->firstDest = dest;
            g->firstKey = key;
            g->firstDomain = port.domain();
            return;
        }
        if (!g->chain) {
            g->chain = EventPool<ChainEvent>::instance().acquire(
                *this, msg, deliver);
            g->chain->addHop(g->firstDest, g->firstKey,
                             g->firstDomain, q);
        }
        g->chain->addHop(dest, key, port.domain(), q);
    });

    for (std::size_t i = 0; i < numGroups; ++i) {
        Group &g = groups[i];
        if (g.chain) {
            scheduleChain(*g.chain, deliver);
        } else {
            scheduleKeyedDelivery(msg, g.firstDest, deliver,
                                  g.firstKey);
        }
    }
}

void
OrderedCrossbar::scheduleKeyedDelivery(const MessageRef &msg,
                                       NodeId dest, Tick when,
                                       std::uint64_t key)
{
    nodes_[dest].port.scheduleKeyed(
        *EventPool<DeliverEvent>::instance().acquire(*this, msg, dest,
                                                     when, false),
        when, key);
}

void
OrderedCrossbar::scheduleChain(ChainEvent &chain, Tick deliver)
{
    // The chain pops at its first hop's coordinates; later hops run
    // inline from there (or re-insert the chain at their own key).
    const ChainEvent::Hop &head = chain.hops[0];
    nodes_[head.dest].port.scheduleKeyed(chain, deliver, head.key);
}

void
OrderedCrossbar::sendOrdered(Message msg)
{
    dsp_assert(isOrdered(msg.kind), "sendOrdered with unordered kind");
    NodeState &src = nodes_[msg.src];
    Tick depart = std::max(src.port.now(), src.egressFree);
    src.egressFree = depart + occupancyOf(msg.kind);

    unsigned hub = topo_.hubOf(msg.block());
    Tick arrive = depart + topo_.hubHop();
    hubs_[hub].port.schedule(
        *EventPool<OrderEvent>::instance().acquire(
            *this, MessageRef(std::move(msg)), hub, arrive, false),
        arrive, EventPriority::NetworkOrder);
}

void
OrderedCrossbar::sendDirect(Message msg)
{
    dsp_assert(!isOrdered(msg.kind), "sendDirect with ordered kind");
    dsp_assert(msg.dest < numNodes(), "bad destination %u", msg.dest);
    NodeState &src = nodes_[msg.src];
    Tick depart = std::max(src.port.now(), src.egressFree);
    src.egressFree = depart + occupancyOf(msg.kind);

    NodeId dest = msg.dest;
    Tick arrive = depart + topo_.directHop(msg.src, dest);
    scheduleDelivery(MessageRef(std::move(msg)), dest, arrive, false);
}

TrafficStats
OrderedCrossbar::traffic(MessageKind kind) const
{
    TrafficStats total;
    for (const NodeState &node : nodes_) {
        const TrafficStats &s =
            node.traffic[static_cast<std::size_t>(kind)];
        total.messages += s.messages;
        total.bytes += s.bytes;
    }
    return total;
}

std::uint64_t
OrderedCrossbar::totalBytes() const
{
    std::uint64_t total = 0;
    for (const NodeState &node : nodes_) {
        for (const TrafficStats &s : node.traffic)
            total += s.bytes;
    }
    return total;
}

void
OrderedCrossbar::resetStats()
{
    for (NodeState &node : nodes_)
        node.traffic.fill(TrafficStats{});
}

void
OrderedCrossbar::ckptSave(ckpt::Writer &w) const
{
    w.section(0x58424152u);  // "XBAR"
    w.u64(hubs_.size());
    for (const HubState &hub : hubs_)
        w.u64(hub.lastOrder);
    w.u64(nodes_.size());
    for (const NodeState &node : nodes_) {
        w.u64(node.ingressFree);
        w.u64(node.egressFree);
        for (const TrafficStats &t : node.traffic) {
            w.u64(t.messages);
            w.u64(t.bytes);
        }
    }
}

void
OrderedCrossbar::ckptLoad(ckpt::Reader &r)
{
    r.section(0x58424152u);
    dsp_assert(r.u64() == hubs_.size(),
               "checkpoint crossbar hub count mismatch");
    for (HubState &hub : hubs_)
        hub.lastOrder = r.u64();
    dsp_assert(r.u64() == nodes_.size(),
               "checkpoint crossbar node count mismatch");
    for (NodeState &node : nodes_) {
        node.ingressFree = r.u64();
        node.egressFree = r.u64();
        for (TrafficStats &t : node.traffic) {
            t.messages = r.u64();
            t.bytes = r.u64();
        }
    }
}

Event &
OrderedCrossbar::ckptRestoreOrder(ckpt::Reader &r)
{
    Message m = r.pod<Message>();
    unsigned hub = r.u32();
    Tick tick = r.u64();
    bool serialized = r.b();
    return *EventPool<OrderEvent>::instance().acquire(
        *this, MessageRef(std::move(m)), hub, tick, serialized);
}

Event &
OrderedCrossbar::ckptRestoreDeliver(ckpt::Reader &r)
{
    Message m = r.pod<Message>();
    NodeId dest = r.u32();
    Tick when = r.u64();
    bool booked = r.b();
    return *EventPool<DeliverEvent>::instance().acquire(
        *this, MessageRef(std::move(m)), dest, when, booked);
}

Event &
OrderedCrossbar::ckptRestoreChain(ckpt::Reader &r,
                                  ShardedKernel &kernel)
{
    Message m = r.pod<Message>();
    Tick when = r.u64();
    std::uint32_t remaining = r.u32();
    dsp_assert(remaining >= 1, "empty fused chain in checkpoint");

    MessageRef msg{std::move(m)};
    // Hop 0 rides the caller's pending-event record (the chain was
    // saved at hop 0's coordinates); the rest re-insert themselves
    // here at their own saved (when, key, domain). All of them come
    // back as plain unbooked deliveries -- a different shard count
    // need not keep them on one queue, and later fan-outs re-fuse.
    NodeId dest0 = r.u32();
    r.u64();  // hop 0's key: re-supplied by the pending-event record
    r.u16();  // hop 0's domain: likewise
    Event &head = *EventPool<DeliverEvent>::instance().acquire(
        *this, msg, dest0, when, false);
    for (std::uint32_t i = 1; i < remaining; ++i) {
        NodeId dest = r.u32();
        std::uint64_t key = r.u64();
        std::uint16_t domain = r.u16();
        kernel.ckptSchedule(*EventPool<DeliverEvent>::instance()
                                 .acquire(*this, msg, dest, when,
                                          false),
                            domain, when, key);
    }
    return head;
}

} // namespace dsp
