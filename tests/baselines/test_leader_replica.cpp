// The replica core every leader-based baseline shares (LeaderReplica):
// client intake, execute-and-reply and the checkpoint floor, checked once
// per protocol.
#include <gtest/gtest.h>

#include "baselines_test_util.hpp"

namespace neo::baselines {
namespace {

using testutil::drive;

template <typename P>
class LeaderReplicaCore : public ::testing::Test {};

struct ProtocolName {
    template <typename P>
    static std::string GetName(int) {
        return P::kName;
    }
};

using Protocols = ::testing::Types<testutil::PbftProtocol, testutil::HotStuffProtocol,
                                   testutil::MinbftProtocol, testutil::ZyzzyvaProtocol>;
TYPED_TEST_SUITE(LeaderReplicaCore, Protocols, ProtocolName);

/// One batch per request, so every request advances the sequence number.
template <typename P>
typename P::Config one_request_batches(std::uint64_t checkpoint_interval) {
    typename P::Config cfg;
    cfg.checkpoint_interval = checkpoint_interval;
    cfg.batch_max = 1;
    cfg.batch_delay = 10 * sim::kMicrosecond;
    return cfg;
}

TYPED_TEST(LeaderReplicaCore, DuplicateRequestAnsweredFromCache) {
    testutil::Deployment<TypeParam> d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 1, results);
    d.sim.run_until(sim::kSecond);
    ASSERT_EQ(results.size(), 1u);

    const NodeId primary = d.cfg.primary(0);
    int answers = 0;
    d.net.set_tamper([&](NodeId from, NodeId to, Bytes&) {
        if (from == primary && to == client.id()) ++answers;
        return sim::TamperAction::kDeliver;
    });
    // Re-deliver the same request to the primary: it resends its cached
    // answer and no replica executes the request again.
    Request req;
    req.client = client.id();
    req.request_id = 1;
    req.op = to_bytes("op-0-0");
    req.mac = client.node_crypto().mac_for(primary, req.mac_body());
    d.net.send(client.id(), primary, req.serialize());
    d.sim.run_until(d.sim.now() + sim::kSecond);
    EXPECT_EQ(answers, 1);
    for (auto& rep : d.replicas) EXPECT_EQ(rep->stats().requests_executed, 1u);
}

TYPED_TEST(LeaderReplicaCore, BadClientMacIgnored) {
    testutil::Deployment<TypeParam> d;
    auto& client = d.add_client();
    Request req;
    req.client = client.id();
    req.request_id = 1;
    req.op = to_bytes("evil");
    req.mac = Bytes(8, 0x42);
    d.net.send(client.id(), d.cfg.primary(0), req.serialize());
    d.sim.run_until(sim::kSecond);
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->stats().requests_executed, 0u);
        EXPECT_EQ(rep->executed_seq(), 0u);
    }
}

TYPED_TEST(LeaderReplicaCore, CheckpointFloorAdvancesAtInterval) {
    testutil::Deployment<TypeParam> d(TypeParam::kReplicas, one_request_batches<TypeParam>(4));
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 20, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 20u);
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->executed_seq(), 20u);
        EXPECT_EQ(rep->stable_checkpoint(), 20u);
        EXPECT_GE(rep->stats().checkpoints, 3u);
    }
}

TYPED_TEST(LeaderReplicaCore, CheckpointIntervalZeroDisablesCheckpoints) {
    testutil::Deployment<TypeParam> d(TypeParam::kReplicas, one_request_batches<TypeParam>(0));
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 20, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 20u);
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->executed_seq(), 20u);
        EXPECT_EQ(rep->stable_checkpoint(), 0u);
        EXPECT_EQ(rep->stats().checkpoints, 0u);
    }
}

}  // namespace
}  // namespace neo::baselines
