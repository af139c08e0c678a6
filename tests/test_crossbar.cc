/**
 * @file
 * Tests for the totally-ordered crossbar: serialization, latency
 * calibration, bandwidth occupancy, and traffic accounting.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "interconnect/crossbar.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

Message
request(NodeId src, DestinationSet dests, TxnId txn = 1)
{
    Message msg;
    msg.kind = MessageKind::Request;
    msg.txn = txn;
    msg.addr = 0x1000;
    msg.src = src;
    msg.dests = dests;
    return msg;
}

Message
data(NodeId src, NodeId dest)
{
    Message msg;
    msg.kind = MessageKind::Data;
    msg.src = src;
    msg.dest = dest;
    return msg;
}

TEST(Crossbar, OrderedRequestTraversalIs50ns)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    Tick order_tick = 0, deliver_tick = 0;
    xbar.setOrderHandler(
        [&](const MessageRef &, Tick t) { order_tick = t; });
    xbar.setDeliverHandler(
        [&](const Message &, NodeId, Tick t) { deliver_tick = t; });

    xbar.sendOrdered(request(0, DestinationSet::of(5)));
    q.run();
    // Order at 25 ns, delivery at exactly 50 ns when uncontended.
    EXPECT_EQ(order_tick, nsToTicks(25.0));
    EXPECT_EQ(deliver_tick, nsToTicks(50.0));
}

TEST(Crossbar, DirectDataTraversalIs50nsPlusOccupancy)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    Tick deliver_tick = 0;
    xbar.setDeliverHandler(
        [&](const Message &, NodeId, Tick t) { deliver_tick = t; });
    xbar.sendDirect(data(1, 2));
    q.run();
    // Cut-through: 50 ns flight; the 7.2 ns occupancy only delays
    // later messages on the same links.
    EXPECT_EQ(deliver_tick, nsToTicks(50.0));
}

TEST(Crossbar, TotalOrderIsGlobal)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    std::vector<TxnId> order;
    xbar.setOrderHandler(
        [&](const MessageRef &msg, Tick) { order.push_back(msg->txn); });

    // Two requests from different nodes at the same tick: exactly one
    // global order results, and every destination sees both in that
    // order (delivery per destination is FIFO from the order point).
    std::vector<std::pair<TxnId, Tick>> deliveries;
    xbar.setDeliverHandler(
        [&](const Message &msg, NodeId dest, Tick t) {
            if (dest == 7)
                deliveries.push_back({msg.txn, t});
        });

    xbar.sendOrdered(request(0, DestinationSet::all(kNodes), 1));
    xbar.sendOrdered(request(1, DestinationSet::all(kNodes), 2));
    q.run();

    ASSERT_EQ(order.size(), 2u);
    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0].first, order[0]);
    EXPECT_EQ(deliveries[1].first, order[1]);
    EXPECT_LE(deliveries[0].second, deliveries[1].second);
}

TEST(Crossbar, SourceIsNeverDelivered)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    bool self_delivery = false;
    xbar.setDeliverHandler(
        [&](const Message &msg, NodeId dest, Tick) {
            self_delivery |= dest == msg.src;
        });
    xbar.sendOrdered(request(3, DestinationSet::all(kNodes)));
    q.run();
    EXPECT_FALSE(self_delivery);
}

TEST(Crossbar, BroadcastReachesAllOthers)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    DestinationSet seen;
    xbar.setDeliverHandler(
        [&](const Message &, NodeId dest, Tick) { seen.add(dest); });
    xbar.sendOrdered(request(3, DestinationSet::all(kNodes)));
    q.run();
    EXPECT_EQ(seen.count(), kNodes - 1);
    EXPECT_FALSE(seen.contains(3));
}

TEST(Crossbar, IngressContentionSerializesDeliveries)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    std::vector<Tick> arrivals;
    xbar.setDeliverHandler(
        [&](const Message &, NodeId dest, Tick t) {
            if (dest == 9)
                arrivals.push_back(t);
        });
    // Ten data messages from distinct sources to one destination:
    // each occupies the 10 GB/s ingress for 7.2 ns.
    for (NodeId src = 0; src < 8; ++src)
        xbar.sendDirect(data(src, 9));
    q.run();
    ASSERT_EQ(arrivals.size(), 8u);
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        EXPECT_GE(arrivals[i] - arrivals[i - 1],
                  nsToTicks(7.2) - 1);
    }
}

TEST(Crossbar, OrderingPointSpacesBackToBackRequests)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    std::vector<Tick> orders;
    xbar.setOrderHandler(
        [&](const MessageRef &, Tick t) { orders.push_back(t); });
    for (int i = 0; i < 4; ++i)
        xbar.sendOrdered(request(static_cast<NodeId>(i),
                                 DestinationSet::of(15)));
    q.run();
    ASSERT_EQ(orders.size(), 4u);
    for (std::size_t i = 1; i < orders.size(); ++i)
        EXPECT_GT(orders[i], orders[i - 1]);
}

TEST(Crossbar, TrafficAccounting)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    xbar.setDeliverHandler([](const Message &, NodeId, Tick) {});
    DestinationSet three;
    three.add(1);
    three.add(2);
    three.add(3);
    xbar.sendOrdered(request(0, three));
    xbar.sendDirect(data(1, 0));
    q.run();

    EXPECT_EQ(xbar.traffic(MessageKind::Request).messages, 3u);
    EXPECT_EQ(xbar.traffic(MessageKind::Request).bytes,
              3 * requestMessageBytes);
    EXPECT_EQ(xbar.traffic(MessageKind::Data).messages, 1u);
    EXPECT_EQ(xbar.traffic(MessageKind::Data).bytes,
              dataMessageBytes);
    EXPECT_EQ(xbar.totalBytes(),
              3 * requestMessageBytes + dataMessageBytes);

    xbar.resetStats();
    EXPECT_EQ(xbar.totalBytes(), 0u);
}

TEST(Crossbar, MulticastFanOutIsZeroCopy)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);

    // Every delivery must hand back the *same* pooled payload object
    // (no per-destination Message copies), and its bytes must match
    // the original request exactly at every destination.
    Message original = request(3, DestinationSet::all(kNodes), 42);
    original.addr = 0x7c0;
    original.pc = 0x1234;
    original.type = RequestType::GetExclusive;

    std::vector<const Message *> payloads;
    DestinationSet seen;
    xbar.setDeliverHandler(
        [&](const Message &msg, NodeId dest, Tick) {
            payloads.push_back(&msg);
            seen.add(dest);
            EXPECT_EQ(msg.kind, original.kind);
            EXPECT_EQ(msg.txn, original.txn);
            EXPECT_EQ(msg.addr, original.addr);
            EXPECT_EQ(msg.pc, original.pc);
            EXPECT_EQ(msg.type, original.type);
            EXPECT_EQ(msg.src, original.src);
            EXPECT_EQ(msg.dests, original.dests);
            EXPECT_EQ(msg.attempt, original.attempt);
        });

    const MessagePoolStats before = MessageRef::stats();
    xbar.sendOrdered(original);
    q.run();
    const MessagePoolStats after = MessageRef::stats();

    // 15 destinations (everyone but the source), one shared payload.
    ASSERT_EQ(payloads.size(), static_cast<std::size_t>(kNodes - 1));
    EXPECT_EQ(seen.count(), kNodes - 1);
    for (const Message *p : payloads)
        EXPECT_EQ(p, payloads.front());

    // Pool accounting: exactly one payload entered the pool for the
    // whole fan-out, refs (not copies) covered the deliveries, and
    // the payload was returned once the last delivery ran. Fused hop
    // chains take one ref per chain (up to 8 same-queue deliveries),
    // so the ref count sits between 1 and one-per-destination.
    EXPECT_EQ(after.acquires - before.acquires, 1u);
    EXPECT_EQ(after.releases - before.releases, 1u);
    EXPECT_GE(after.refsShared - before.refsShared, 1u);
    EXPECT_LE(after.refsShared - before.refsShared,
              static_cast<std::uint64_t>(kNodes - 1));
    EXPECT_EQ(after.live(), before.live());
}

TEST(Crossbar, DirectSendPayloadIsPooledAndReleased)
{
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes);
    int deliveries = 0;
    xbar.setDeliverHandler(
        [&](const Message &, NodeId, Tick) { ++deliveries; });

    const MessagePoolStats before = MessageRef::stats();
    xbar.sendDirect(data(1, 2));
    xbar.sendDirect(data(2, 3));
    q.run();
    const MessagePoolStats after = MessageRef::stats();

    EXPECT_EQ(deliveries, 2);
    EXPECT_EQ(after.acquires - before.acquires, 2u);
    EXPECT_EQ(after.releases - before.releases, 2u);
    EXPECT_EQ(after.live(), before.live());
}

TEST(Crossbar, MessageKindMetadata)
{
    EXPECT_TRUE(isOrdered(MessageKind::Request));
    EXPECT_TRUE(isOrdered(MessageKind::Retry));
    EXPECT_FALSE(isOrdered(MessageKind::Data));
    EXPECT_EQ(messageBytes(MessageKind::Data), 72u);
    EXPECT_EQ(messageBytes(MessageKind::Writeback), 72u);
    EXPECT_EQ(messageBytes(MessageKind::Request), 8u);
    EXPECT_EQ(messageBytes(MessageKind::Grant), 8u);
}

// ------------------------------------------------------------- topology

TEST(Topology, FlatDefaultReproducesTable4Legs)
{
    // The degenerate topology is the paper's single-hop crossbar:
    // node leg = traversal/2, no switch tier, one hub.
    Topology topo(16, TopologyParams{}, 50.0);
    EXPECT_TRUE(topo.flat());
    EXPECT_EQ(topo.numClusters(), 1u);
    EXPECT_EQ(topo.hubHop(), nsToTicks(25.0));
    EXPECT_EQ(topo.directHop(0, 15), nsToTicks(50.0));
    EXPECT_EQ(topo.minHop(), nsToTicks(25.0));
    EXPECT_EQ(topo.hubOf(0x123456), 0u);
}

TEST(Topology, HierarchicalLegsAndClusterMembership)
{
    TopologyParams p;
    p.cluster_size = 16;
    p.cluster_link_ns = 10.0;
    p.switch_link_ns = 15.0;
    p.hubs = 4;
    Topology topo(64, p, 50.0);

    EXPECT_FALSE(topo.flat());
    EXPECT_EQ(topo.numClusters(), 4u);
    EXPECT_TRUE(topo.sameCluster(0, 15));
    EXPECT_FALSE(topo.sameCluster(15, 16));
    EXPECT_EQ(topo.clusterOf(63), 3u);

    // Intra-cluster: two node legs. Cross-cluster: two node legs plus
    // two switch legs. Hub distance is uniform (node + switch leg).
    EXPECT_EQ(topo.directHop(0, 15), nsToTicks(20.0));
    EXPECT_EQ(topo.directHop(0, 16), nsToTicks(50.0));
    EXPECT_EQ(topo.hubHop(), nsToTicks(25.0));
    // Lookahead is the cheapest cross-domain path: the intra-cluster
    // direct hop here.
    EXPECT_EQ(topo.minHop(), nsToTicks(20.0));
}

TEST(Topology, HubInterleavingPow2AndModulo)
{
    TopologyParams p4;
    p4.hubs = 4;
    Topology pow2(64, p4, 50.0);
    for (BlockId b = 0; b < 16; ++b)
        EXPECT_EQ(pow2.hubOf(b), b % 4);

    TopologyParams p3;
    p3.hubs = 3;
    Topology mod(64, p3, 50.0);
    for (BlockId b = 0; b < 15; ++b)
        EXPECT_EQ(mod.hubOf(b), b % 3);
}

TEST(Topology, BadGeometryPanics)
{
    PanicGuard guard;
    TopologyParams bad_cluster;
    bad_cluster.cluster_size = 10;  // does not divide 64
    EXPECT_THROW(Topology(64, bad_cluster, 50.0), std::runtime_error);
    TopologyParams bad_hubs;
    bad_hubs.hubs = Topology::maxHubs + 1;
    EXPECT_THROW(Topology(64, bad_hubs, 50.0), std::runtime_error);
}

/**
 * Hierarchical-latency pin (satellite: intra- vs cross-cluster hop
 * costs end to end): point-to-point data inside a cluster pays two
 * node legs; across clusters it adds the two switch legs; ordered
 * requests pay hub-distance twice regardless of cluster.
 */
TEST(Crossbar, HierarchicalLatenciesPinned)
{
    CrossbarParams params;
    params.topology.cluster_size = 8;
    params.topology.cluster_link_ns = 10.0;
    params.topology.switch_link_ns = 15.0;

    {
        EventQueue q;
        OrderedCrossbar xbar(q, 32, params);
        std::vector<std::pair<NodeId, Tick>> deliveries;
        xbar.setDeliverHandler(
            [&](const Message &, NodeId dest, Tick t) {
                deliveries.push_back({dest, t});
            });
        // Distinct sources so neither send queues on an egress link.
        xbar.sendDirect(data(0, 7));   // same cluster
        xbar.sendDirect(data(1, 8));   // crosses clusters
        q.run();
        ASSERT_EQ(deliveries.size(), 2u);
        EXPECT_EQ(deliveries[0].second, nsToTicks(20.0));  // 2*10 ns
        EXPECT_EQ(deliveries[1].second, nsToTicks(50.0));  // +2*15 ns
    }

    {
        EventQueue q;
        OrderedCrossbar xbar(q, 32, params);
        Tick order_tick = 0, deliver_tick = 0;
        xbar.setOrderHandler(
            [&](const MessageRef &, Tick t) { order_tick = t; });
        xbar.setDeliverHandler(
            [&](const Message &, NodeId, Tick t) { deliver_tick = t; });
        xbar.sendOrdered(request(0, DestinationSet::of(1)));
        q.run();
        // Up to the global tier (10 + 15 ns), then back down to the
        // destination: hub distance is uniform over nodes.
        EXPECT_EQ(order_tick, nsToTicks(25.0));
        EXPECT_EQ(deliver_tick, nsToTicks(50.0));
    }
}

/**
 * Address-interleaved ordering points: blocks on different hubs
 * serialize independently (same-tick verdicts), blocks on the same
 * hub space out by the ordering gap -- and a multi-hub flat machine
 * keeps the single-hub uncontended latency.
 */
TEST(Crossbar, MultiHubOrderingIsPerHub)
{
    CrossbarParams params;
    params.topology.hubs = 4;

    EventQueue q;
    OrderedCrossbar xbar(q, kNodes, params);
    std::vector<std::pair<BlockId, Tick>> orders;
    xbar.setOrderHandler(
        [&](const MessageRef &msg, Tick t) {
            orders.push_back({msg->block(), t});
        });
    xbar.setDeliverHandler([](const Message &, NodeId, Tick) {});

    auto to_block = [](BlockId b, NodeId src, TxnId txn) {
        Message msg;
        msg.kind = MessageKind::Request;
        msg.txn = txn;
        msg.addr = blockBase(b);
        msg.src = src;
        msg.dests = DestinationSet::of(15);
        return msg;
    };

    // Blocks 0 and 1 interleave to hubs 0 and 1: both serialize at
    // the uncontended 25 ns. Block 4 shares hub 0 with block 0 and
    // must be spaced behind it.
    xbar.sendOrdered(to_block(0, 0, 1));
    xbar.sendOrdered(to_block(1, 1, 2));
    xbar.sendOrdered(to_block(4, 2, 3));
    q.run();

    ASSERT_EQ(orders.size(), 3u);
    EXPECT_EQ(orders[0].second, nsToTicks(25.0));
    EXPECT_EQ(orders[1].second, nsToTicks(25.0));
    EXPECT_GT(orders[2].second, orders[0].second);
}

/**
 * Link-only deliveries: a contended Request whose destination the
 * duty predicate rejects books the ingress link and counts its
 * traffic, but never refires, so its handler never runs. Three
 * ordered requests land on node 5 back to back (two broadcasts, then
 * a single-destination request -- the fused path's lone-delivery
 * shape); a Data message to node 5 then arrives while the link is
 * still booked by the last of them and must land exactly where it
 * lands without the predicate.
 */
struct LinkOnlyRun {
    std::vector<std::pair<TxnId, NodeId>> delivered;
    Tick dataTick = 0;
    std::uint64_t executed = 0;
    std::uint64_t requestMessages = 0;
    std::uint64_t totalBytes = 0;
};

bool
linkOnly(NodeId dest)
{
    return dest % 2 == 1 && dest >= 3;
}

LinkOnlyRun
runLinkOnlyScenario(bool fuse, bool predicate)
{
    CrossbarParams params;
    params.fuse_chains = fuse;
    EventQueue q;
    OrderedCrossbar xbar(q, kNodes, params);
    LinkOnlyRun run;
    xbar.setDeliverHandler(
        [&](const Message &msg, NodeId dest, Tick t) {
            if (msg.kind == MessageKind::Data)
                run.dataTick = t;
            else
                run.delivered.push_back({msg.txn, dest});
        });
    if (predicate) {
        xbar.setDutyPredicate([](const Message &, NodeId dest) {
            return !linkOnly(dest);
        });
    }
    xbar.sendOrdered(request(0, DestinationSet::all(kNodes), 1));
    xbar.sendOrdered(request(1, DestinationSet::all(kNodes), 2));
    xbar.sendOrdered(request(2, DestinationSet::of(5), 3));
    // Arrives at 51.5 ns: inside txn 3's booking of node 5's link.
    q.schedule(nsToTicks(1.5), [&xbar] { xbar.sendDirect(data(3, 5)); });
    q.run();
    run.executed = q.executed();
    run.requestMessages = xbar.traffic(MessageKind::Request).messages;
    run.totalBytes = xbar.totalBytes();
    return run;
}

class CrossbarLinkOnly : public ::testing::TestWithParam<bool>
{
};

TEST_P(CrossbarLinkOnly, ContendedLinkOnlyDeliveriesDoNotRefire)
{
    const bool fuse = GetParam();
    LinkOnlyRun plain = runLinkOnlyScenario(fuse, false);
    LinkOnlyRun skip = runLinkOnlyScenario(fuse, true);

    // Without a predicate every delivery reaches the handler.
    EXPECT_EQ(plain.delivered.size(), 2u * (kNodes - 1) + 1);

    for (const auto &[txn, dest] : skip.delivered) {
        // The first broadcast is uncontended everywhere, so it reaches
        // every destination; the second contends at every link it
        // shares with the first, and txn 3 contends at node 5.
        if (txn != 1) {
            EXPECT_FALSE(linkOnly(dest))
                << "txn " << txn << " ran the handler at link-only "
                << "node " << dest;
        }
    }
    std::size_t link_only_nodes = 0;
    for (NodeId n = 0; n < kNodes; ++n)
        link_only_nodes += linkOnly(n) ? 1 : 0;
    EXPECT_EQ(skip.delivered.size(),
              plain.delivered.size() - link_only_nodes - 1);

    // The bookings survived: the Data message waits behind txn 3's
    // occupancy exactly as it does without the predicate.
    EXPECT_EQ(skip.dataTick, plain.dataTick);
    EXPECT_GT(skip.dataTick, nsToTicks(51.5));
    EXPECT_EQ(skip.requestMessages, plain.requestMessages);
    EXPECT_EQ(skip.totalBytes, plain.totalBytes);

    EXPECT_LT(skip.executed, plain.executed);
}

INSTANTIATE_TEST_SUITE_P(FuseChains, CrossbarLinkOnly,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? std::string("Fused")
                                               : std::string("Unfused");
                         });

} // namespace
} // namespace dsp
