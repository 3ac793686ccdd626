// PDES placement is host-locality only: the simulator's event order is a
// pure function of (time, lane, seq), never of which partition executes an
// event, so ANY placement policy must produce byte-identical traces and
// metrics at every --sim-threads value. This test runs the same seeded
// deployment under a matrix of placement policies x thread counts and
// compares full JSONL traces byte-for-byte.
//
// tsan label: scrambled placements co-locate nodes that normally never
// share a partition worker, the sharpest cross-partition scheduling the
// placement layer can produce.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "obs/trace.hpp"

namespace neo::bench {
namespace {

constexpr std::uint64_t kSeed = 9090;

struct RunOut {
    std::string trace;
    std::uint64_t completed = 0;
    double p50_us = 0;
    double p99_us = 0;
    std::uint64_t packets = 0;
    std::uint64_t executed_events = 0;
    std::uint64_t committed_ops = 0;
};

/// Scrambled-but-safe placement for sharded deployments: keeps each node
/// block (a shard's replicas, one logical client's children) together —
/// the ShardClient's co-location contract — but maps blocks to partitions
/// through a multiplicative hash instead of the affine default.
unsigned scrambled_sharded(NodeId id, unsigned nparts) {
    NodeId block;
    if (id >= 1'000) {
        block = 101 + (id - 1'000) / 32;  // client c's children
    } else if (id >= 900) {
        block = 51 + (id - 900);  // config service + switches
    } else {
        block = (id - 1) / 8;  // shard s's replicas
    }
    return static_cast<unsigned>((block * 2'654'435'761ull + 12'345ull) % nparts);
}

/// Arbitrary per-node scramble (no co-location constraints in the plain
/// NeoBFT deployment).
unsigned scrambled_flat(NodeId id, unsigned nparts) {
    return static_cast<unsigned>((id * 2'654'435'761ull + 97ull) % nparts);
}

/// Traces one closed-loop run of a fresh deployment and keeps everything
/// placement must not change.
RunOut traced_run(Deployment& d, const OpGen& gen) {
    obs::TraceSink sink;
    d.simulator().set_trace(&sink);
    Measured m = run_closed_loop(d, gen, 1 * sim::kMillisecond, 4 * sim::kMillisecond);
    d.simulator().set_trace(nullptr);

    RunOut out;
    std::ostringstream os;
    sink.write_jsonl(os);
    out.trace = os.str();
    out.completed = m.completed;
    out.p50_us = m.p50_us;
    out.p99_us = m.p99_us;
    out.packets = d.network().packets_delivered();
    out.executed_events = d.simulator().executed_events();
    out.committed_ops = d.txn_totals().committed_ops;
    return out;
}

RunOut run_neo(unsigned sim_threads, sim::Simulator::PlacementFn placement) {
    NeoParams p;
    p.n_replicas = 4;
    p.n_clients = 8;
    p.seed = kSeed;
    p.sim_threads = sim_threads;
    p.placement = std::move(placement);
    auto d = make_neobft(p);
    return traced_run(*d, echo_ops(64));
}

RunOut run_sharded(unsigned sim_threads, sim::Simulator::PlacementFn placement) {
    ShardParams p;
    p.n_shards = 4;
    p.n_replicas = 4;
    p.n_clients = 4;
    p.seed = kSeed;
    p.sim_threads = sim_threads;
    p.placement = std::move(placement);
    p.dataset.record_count = 1'000;
    auto d = make_sharded_neobft(p);

    ShardTxnWorkload w;
    w.n_shards = 4;
    w.cross_shard_ratio = 0.25;
    w.seed = kSeed;
    w.dataset.record_count = 1'000;
    return traced_run(*d, sharded_txn_ops(w, d->n_clients()));
}

void expect_same(const RunOut& ref, const RunOut& got, const std::string& what) {
    EXPECT_EQ(ref.completed, got.completed) << what;
    EXPECT_EQ(ref.p50_us, got.p50_us) << what;
    EXPECT_EQ(ref.p99_us, got.p99_us) << what;
    EXPECT_EQ(ref.packets, got.packets) << what;
    EXPECT_EQ(ref.executed_events, got.executed_events) << what;
    EXPECT_EQ(ref.committed_ops, got.committed_ops) << what;
    ASSERT_EQ(ref.trace.size(), got.trace.size()) << what << ": trace size diverged";
    EXPECT_TRUE(ref.trace == got.trace) << what << ": trace bytes diverged";
}

TEST(Placement, NeoByteIdenticalAcrossPlacementsAndThreads) {
    RunOut ref = run_neo(1, {});
    EXPECT_GT(ref.completed, 0u);
    EXPECT_FALSE(ref.trace.empty());
    for (unsigned threads : {1u, 2u, 8u}) {
        expect_same(ref, run_neo(threads, {}),
                    "default placement, threads=" + std::to_string(threads));
        expect_same(ref, run_neo(threads, scrambled_flat),
                    "scrambled placement, threads=" + std::to_string(threads));
    }
}

TEST(Placement, ShardedByteIdenticalAcrossPlacementsAndThreads) {
    RunOut ref = run_sharded(1, {});
    EXPECT_GT(ref.completed, 0u);
    EXPECT_GT(ref.committed_ops, 0u);
    for (unsigned threads : {1u, 2u, 8u}) {
        expect_same(ref, run_sharded(threads, {}),
                    "group-affine placement, threads=" + std::to_string(threads));
        expect_same(ref, run_sharded(threads, scrambled_sharded),
                    "scrambled placement, threads=" + std::to_string(threads));
    }
}

TEST(Placement, BaselineFactoriesApplyThePolicy) {
    // CommonParams::placement reaches every factory, not only NeoBFT's: the
    // PBFT replicas land where the policy puts them, and the run is the
    // default-placement run byte for byte.
    auto build = [](sim::Simulator::PlacementFn placement) {
        CommonParams p;
        p.n_replicas = 4;
        p.n_clients = 8;
        p.seed = kSeed;
        p.sim_threads = 4;
        p.placement = std::move(placement);
        return make_system(System::kPbft, p);
    };
    auto scrambled = build(scrambled_flat);
    ASSERT_EQ(scrambled->replica_ids().size(), 4u);
    for (NodeId r : scrambled->replica_ids()) {
        EXPECT_EQ(scrambled->simulator().partition_of(r), scrambled_flat(r, 4)) << "replica " << r;
    }
    RunOut got = traced_run(*scrambled, echo_ops(64));
    RunOut ref = traced_run(*build(nullptr), echo_ops(64));
    EXPECT_GT(ref.completed, 0u);
    expect_same(ref, got, "pbft scrambled placement, threads=4");
}

TEST(Placement, PolicyOnlyMovesHostWork) {
    // partition_of must reflect the installed policy (this is what the
    // engine consults when distributing nodes across workers).
    sim::Simulator s(4);
    s.set_placement([](NodeId id, unsigned nparts) { return (id + 3) % nparts; });
    s.bind_node(1);
    s.bind_node(9);
    EXPECT_EQ(s.partition_of(1), 4u % s.partitions());
    EXPECT_EQ(s.partition_of(9), 12u % s.partitions());
    // Unbound nodes fall back to the id % nparts default.
    EXPECT_EQ(s.partition_of(2), 2u % s.partitions());
}

}  // namespace
}  // namespace neo::bench
