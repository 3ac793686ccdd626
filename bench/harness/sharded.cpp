// Multi-group sharded NeoBFT deployment: N independent sequencer groups,
// each a full NeoBFT replica group owning a contiguous slice of the key-hash
// space, fronted by per-client cross-shard 2PC coordinators.
#include <memory>

#include "aom/config_service.hpp"
#include "apps/kvstore.hpp"
#include "apps/ycsb.hpp"
#include "common/assert.hpp"
#include "harness/harness.hpp"
#include "neobft/replica.hpp"
#include "neobft/shard_client.hpp"
#include "neobft/shard_router.hpp"
#include "sim/costs.hpp"

namespace neo::bench {

namespace {

constexpr GroupId kShardGroupBase = 7;

/// Replica ids: shard s, index i -> 1 + 8s + i (max 8 replicas per shard).
constexpr NodeId kShardReplicaStride = 8;
/// Client child ids: logical client c, shard s -> 1000 + 32c + s.
constexpr NodeId kShardClientStride = 32;

/// Group-affine placement: a shard's replicas and its home switch share a
/// partition, and every child client of one logical client shares one — the
/// ShardClient concurrency contract (its phase callbacks mutate shared
/// coordinator state without locks).
unsigned group_affine(NodeId id, unsigned nparts) {
    if (id >= Topology::kClientBase) {
        return static_cast<unsigned>((id - Topology::kClientBase) / kShardClientStride) % nparts;
    }
    if (id >= Topology::kSwitchBase) return static_cast<unsigned>(id - Topology::kSwitchBase) % nparts;
    if (id == Topology::kConfigId) return 0;
    return static_cast<unsigned>((id - Topology::kReplicaBase) / kShardReplicaStride) % nparts;
}

}  // namespace

std::unique_ptr<Deployment> make_sharded_neobft(const ShardParams& p) {
    const int S = p.n_shards;
    NEO_ASSERT(S >= 1 && S <= static_cast<int>(kShardClientStride));
    NEO_ASSERT(p.n_replicas >= 1 && p.n_replicas <= static_cast<int>(kShardReplicaStride));
    auto t = std::make_unique<Topology>(p, true, group_affine);

    // One group per shard over an even tiling of the 64-bit hash space.
    std::vector<aom::GroupConfig> groups;
    for (int s = 0; s < S; ++s) {
        std::vector<NodeId> receivers;
        for (int i = 0; i < p.n_replicas; ++i) {
            receivers.push_back(Topology::kReplicaBase +
                                kShardReplicaStride * static_cast<NodeId>(s) +
                                static_cast<NodeId>(i));
        }
        groups.push_back(
            neo_group(p.variant, kShardGroupBase + static_cast<GroupId>(s), std::move(receivers)));
    }
    groups = neobft::ShardRouter::assign_ranges(std::move(groups));
    const auto& router = t->adopt(std::make_unique<neobft::ShardRouter>(groups));

    // One home switch per shard plus a shared spare the failover
    // round-robin can move any group onto.
    aom::ConfigService& config = t->add_sequencers(S + 1, aom::SequencerConfig{}, false);
    for (int s = 0; s < S; ++s) {
        config.register_group(groups[static_cast<std::size_t>(s)], static_cast<std::size_t>(s));
    }

    app::YcsbWorkload preload(p.dataset, p.seed);
    std::vector<neobft::Config> shard_cfgs;
    for (int s = 0; s < S; ++s) {
        const aom::GroupConfig& g = groups[static_cast<std::size_t>(s)];
        neobft::Config cfg;
        cfg.f = g.f;
        cfg.group = g.group;
        cfg.config_service = Topology::kConfigId;
        cfg.sync_interval = p.sync_interval;
        cfg.replicas = g.receivers;
        shard_cfgs.push_back(cfg);

        for (NodeId rid : cfg.replicas) {
            auto app = std::make_unique<app::KvStateMachine>();
            if (s == p.byzantine_prepare_shard) app->set_byzantine_prepare_equivocation(true);
            app->set_wait_die(p.wait_die);
            app->set_presumed_abort_after(p.presumed_abort_after);
            if (p.dataset.record_count > 0) preload.load_into(*app);
            auto& rep = t->add_replica(std::make_unique<neobft::Replica>(
                                           cfg, t->provision(rid), t->keys(), std::move(app),
                                           p.receiver),
                                       rid);
            rep.bootstrap(g, config.current_sequencer(g.group));
        }
    }

    for (int c = 0; c < p.n_clients; ++c) {
        std::vector<neobft::Client*> children;
        for (int s = 0; s < S; ++s) {
            NodeId cid = Topology::kClientBase + kShardClientStride * static_cast<NodeId>(c) +
                         static_cast<NodeId>(s);
            children.push_back(&t->add_node(
                std::make_unique<neobft::Client>(shard_cfgs[static_cast<std::size_t>(s)],
                                                 t->provision(cid), &config),
                cid));
        }
        t->add_coordinator(std::make_unique<neobft::ShardClient>(
            &router, std::move(children), static_cast<std::uint32_t>(c) + 1));
    }
    return t;
}

OpGen sharded_txn_ops(const ShardTxnWorkload& w, int n_clients) {
    NEO_ASSERT(w.n_shards >= 1);
    // A router over the same even range tiling the deployment uses: group
    // ids are irrelevant to shard_index, so the workload's copy routes
    // identically to the deployment's.
    std::vector<aom::GroupConfig> gs(static_cast<std::size_t>(w.n_shards));
    for (std::size_t s = 0; s < gs.size(); ++s) gs[s].group = static_cast<GroupId>(s);
    auto router =
        std::make_shared<neobft::ShardRouter>(neobft::ShardRouter::assign_ranges(std::move(gs)));

    // Per-client generator state: client c's stream is touched only from
    // its own partition (the closed loop reissues from c's completion
    // context), so no cross-thread sharing.
    auto gens = std::make_shared<std::vector<std::unique_ptr<app::YcsbWorkload>>>();
    for (int c = 0; c < n_clients; ++c) {
        gens->push_back(std::make_unique<app::YcsbWorkload>(
            w.dataset, w.seed * 1'000'003 + static_cast<std::uint64_t>(c)));
    }

    app::YcsbWorkload::TxnConfig tc{w.ops_per_txn, w.cross_shard_ratio};
    const auto n_shards = static_cast<std::size_t>(w.n_shards);
    return [router, gens, tc, n_shards](int client, std::uint64_t) {
        app::KvTxnOp txn = (*gens)[static_cast<std::size_t>(client)]->next_txn(
            tc, [&](BytesView key) { return router->shard_index(key); }, n_shards);
        return txn.serialize();
    };
}

}  // namespace neo::bench
