// aom-hm session keys (§4.3): the sequencer derives its receivers' keys once
// per installed group and each receiver keeps the key of its current
// switch. Across failovers and reconfigurations the keys in use must follow
// the active switch and the installed receiver list, and a tag made under a
// superseded switch's key must still be rejected.
#include <gtest/gtest.h>

#include "aom_test_util.hpp"

namespace neo::aom {
namespace {

using testutil::Deployment;
using testutil::HostNode;

/// An HM packet for every receiver of a 4-member group (one subgroup),
/// tagged under `switch_id`'s session keys.
Bytes tagged_packet(Deployment& d, NodeId switch_id, EpochNum epoch, SeqNum seq,
                    const std::string& payload) {
    HmPacket pkt;
    pkt.group = Deployment::kGroup;
    pkt.epoch = epoch;
    pkt.seq = seq;
    pkt.payload = to_bytes(payload);
    pkt.digest = d.hosts[0]->crypto().hash(pkt.payload);
    pkt.subgroup = 0;
    pkt.n_subgroups = 1;
    Bytes input = auth_input(pkt.group, epoch, seq, pkt.digest);
    for (const auto& host : d.hosts) {
        pkt.macs.push_back(crypto::halfsiphash24(d.keys.hm_key(switch_id, host->id()), input));
    }
    return pkt.serialize();
}

void inject(Deployment& d, NodeId from, const Bytes& wire) {
    for (const auto& host : d.hosts) d.net.send(from, host->id(), sim::Packet(Bytes(wire)));
    d.sim.run();
}

void fail_over_to(Deployment& d, EpochNum epoch) {
    d.config->force_failover(Deployment::kGroup);
    d.sim.run();
    ASSERT_EQ(d.config->current_epoch(Deployment::kGroup), epoch);
    for (auto& host : d.hosts) {
        host->receiver().start_epoch(epoch, *host->receiver().announced_sequencer(epoch));
    }
}

TEST(AomHmKeys, ReceiverKeyFollowsTheActiveSwitchAcrossFailovers) {
    Deployment d(4, AuthVariant::kHmacVector, NetworkTrust::kCrashOnly, 1,
                 crypto::CryptoMode::kModeled, /*n_switches=*/2);
    const NodeId a = d.switches[0]->id();
    const NodeId b = d.switches[1]->id();

    d.sender->send_payload(to_bytes("epoch1"));
    d.sim.run();

    // A -> B: B's packets verify, a packet tagged under A's key does not.
    fail_over_to(d, 2);
    ASSERT_EQ(d.hosts[0]->receiver().sequencer(), b);
    d.sender->send_payload(to_bytes("epoch2"));
    d.sim.run();
    inject(d, a, tagged_packet(d, a, 2, 2, "stale-a"));
    for (const auto& host : d.hosts) EXPECT_EQ(host->receiver().rejected_packets(), 1u);
    inject(d, b, tagged_packet(d, b, 2, 2, "direct-b"));

    // B -> A: the receiver re-derives A's key; B's key is now the stale one.
    fail_over_to(d, 3);
    ASSERT_EQ(d.hosts[0]->receiver().sequencer(), a);
    d.sender->send_payload(to_bytes("epoch3"));
    d.sim.run();
    inject(d, b, tagged_packet(d, b, 3, 2, "stale-b"));
    for (const auto& host : d.hosts) EXPECT_EQ(host->receiver().rejected_packets(), 2u);
    inject(d, a, tagged_packet(d, a, 3, 2, "direct-a"));

    const std::vector<std::pair<EpochNum, std::string>> expect = {
        {1, "epoch1"}, {2, "epoch2"}, {2, "direct-b"}, {3, "epoch3"}, {3, "direct-a"}};
    for (const auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(host->deliveries[i].kind, Delivery::Kind::kMessage);
            EXPECT_EQ(host->deliveries[i].epoch, expect[i].first);
            EXPECT_EQ(to_string(host->deliveries[i].payload), expect[i].second);
        }
    }
}

TEST(AomHmKeys, ReinstalledGroupTagsForItsNewReceivers) {
    sim::Simulator sim;
    sim::Network net(sim, /*seed=*/5);
    net.set_default_link(sim::datacenter_link());
    crypto::TrustRoot root(crypto::CryptoMode::kModeled, /*seed=*/6);
    AomKeyService keys(/*seed=*/7);
    constexpr NodeId kSwitch = 200;
    constexpr NodeId kSender = 300;
    constexpr GroupId kGroup = 3;
    SequencerSwitch sw(SequencerConfig{}, root.provision(kSwitch), &keys);
    net.add_node(sw, kSwitch);
    std::vector<std::unique_ptr<HostNode>> hosts;
    for (NodeId id = 1; id <= 5; ++id) {
        hosts.push_back(std::make_unique<HostNode>(root.provision(id)));
        net.add_node(*hosts.back(), id);
    }
    auto host = [&](NodeId id) -> HostNode& { return *hosts[id - 1]; };

    auto install = [&](std::vector<NodeId> receivers, EpochNum epoch) {
        GroupConfig gc;
        gc.group = kGroup;
        gc.variant = AuthVariant::kHmacVector;
        gc.f = 1;
        gc.receivers = std::move(receivers);
        sw.install_group(gc, epoch);
        for (NodeId r : gc.receivers) {
            host(r).init_receiver(gc, &keys);
            host(r).receiver().start_epoch(epoch, kSwitch);
        }
    };
    auto send = [&](const std::string& payload) {
        DataPacket pkt;
        pkt.group = kGroup;
        pkt.payload = to_bytes(payload);
        pkt.digest = host(1).crypto().hash(pkt.payload);
        net.send(kSender, kSwitch, sim::Packet(pkt.serialize()));
        sim.run();
    };

    install({1, 2, 3, 4}, 1);
    send("first");
    for (NodeId r : {1u, 2u, 3u, 4u}) ASSERT_EQ(host(r).deliveries.size(), 1u) << r;

    // Same size, new member, every surviving member in a new slot: MACs made
    // with the previous installation's per-slot keys would fail everywhere.
    for (auto& h : hosts) h->deliveries.clear();
    install({5, 3, 1, 2}, 2);
    send("second");
    for (NodeId r : {5u, 3u, 1u, 2u}) {
        ASSERT_EQ(host(r).deliveries.size(), 1u) << r;
        EXPECT_EQ(to_string(host(r).deliveries[0].payload), "second");
        EXPECT_EQ(host(r).deliveries[0].epoch, 2u);
        EXPECT_EQ(host(r).receiver().rejected_packets(), 0u) << r;
    }
    EXPECT_TRUE(host(4).deliveries.empty());  // dropped from the group
}

}  // namespace
}  // namespace neo::aom
