#include <gtest/gtest.h>

#include "baselines_test_util.hpp"

namespace neo::baselines {
namespace {

using ZyzzyvaDeployment = testutil::Deployment<testutil::ZyzzyvaProtocol>;

TEST(Zyzzyva, FastPathWithAllReplicas) {
    ZyzzyvaDeployment d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 10, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 10u);
    EXPECT_EQ(client.fast_commits(), 10u);
    EXPECT_EQ(client.slow_commits(), 0u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], "op-0-" + std::to_string(i));
}

TEST(Zyzzyva, SlowPathWithSilentReplica) {
    // Zyzzyva-F: one muted replica means the fast path never completes.
    ZyzzyvaDeployment d;
    d.net.set_node_muted(d.replicas[3]->id(), true);
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 5, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 5u);
    EXPECT_EQ(client.fast_commits(), 0u);
    EXPECT_EQ(client.slow_commits(), 5u);
}

struct OneOp {
    sim::Time committed_at = -1;  // -1: never committed
    std::uint64_t slow_commits = 0;
};

/// Invokes one op at t=0 and records when it commits; the last replica is
/// muted when `mute`.
OneOp run_one_op(bool mute) {
    ZyzzyvaDeployment d;
    if (mute) d.net.set_node_muted(d.replicas[3]->id(), true);
    auto& client = d.add_client();
    OneOp out;
    client.invoke(to_bytes("x"), [&](Bytes) { out.committed_at = d.sim.now(); });
    d.sim.run_until(10 * sim::kSecond);
    out.slow_commits = client.slow_commits();
    return out;
}

TEST(Zyzzyva, SlowPathSlowerThanFast) {
    // The slow path waits out the fast-path timeout, then runs one more
    // round trip (commit certificate -> local commits).
    const sim::Time timeout = ZyzzyvaClient::Options{}.fast_path_timeout;
    OneOp fast = run_one_op(false);
    OneOp slow = run_one_op(true);
    ASSERT_GE(fast.committed_at, 0);
    ASSERT_GE(slow.committed_at, 0);
    EXPECT_EQ(fast.slow_commits, 0u);
    EXPECT_EQ(slow.slow_commits, 1u);
    EXPECT_LT(fast.committed_at, timeout);
    EXPECT_GT(slow.committed_at, timeout);
    EXPECT_GT(slow.committed_at, fast.committed_at);
    // The same check on the unmuted configuration fails: without the mute
    // the op commits on the fast path, at the same instant as before.
    EXPECT_FALSE(run_one_op(false).committed_at > fast.committed_at);
}

TEST(Zyzzyva, SpeculativeHistoryConsistent) {
    ZyzzyvaDeployment d;
    std::vector<std::vector<std::string>> results(3);
    for (int c = 0; c < 3; ++c) {
        auto& client = d.add_client();
        testutil::drive(client, c, 0, 10, results[static_cast<std::size_t>(c)]);
    }
    d.sim.run_until(10 * sim::kSecond);
    for (const auto& r : results) EXPECT_EQ(r.size(), 10u);
    // All replicas executed the same number of requests (same order implied
    // by the matching histories the clients verified).
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->stats().requests_executed, 30u);
    }
}

TEST(Zyzzyva, BatchedThroughput) {
    BaseConfig base;
    base.batch_max = 8;
    ZyzzyvaDeployment d(4, base);
    std::vector<std::vector<std::string>> results(6);
    for (int c = 0; c < 6; ++c) {
        auto& client = d.add_client();
        testutil::drive(client, c, 0, 10, results[static_cast<std::size_t>(c)]);
    }
    d.sim.run_until(10 * sim::kSecond);
    for (const auto& r : results) EXPECT_EQ(r.size(), 10u);
    EXPECT_LT(d.replicas[1]->stats().batches_ordered + 60, 120u);
}

TEST(Zyzzyva, TamperedOrderReqRejected) {
    ZyzzyvaDeployment d;
    // Corrupt primary->replica2 order-req traffic: replica 2 then diverges
    // from the others, but clients still make progress via the slow path
    // with the 3 consistent replicas... with f=1 and 3f+1 needed for fast
    // path, fast path fails but 2f+1 slow path succeeds.
    d.net.set_tamper([](NodeId from, NodeId to, Bytes& data) {
        if (from == 1 && to == 2 && !data.empty() &&
            data[0] == static_cast<std::uint8_t>(Kind::kOrderReq)) {
            data.back() ^= 1;
        }
        return sim::TamperAction::kDeliver;
    });
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 3, results);
    d.sim.run_until(10 * sim::kSecond);
    EXPECT_EQ(results.size(), 3u);
    // Replica 2 rejected the corrupted order-reqs.
    EXPECT_EQ(d.replicas[1]->stats().requests_executed, 0u);
}

}  // namespace
}  // namespace neo::baselines
