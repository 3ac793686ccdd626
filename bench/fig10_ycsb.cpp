// Figure 10: maximum throughput of the replicated B-Tree key-value store
// under YCSB workload A (100K records, 128-byte fields) for every protocol.
#include <cstdio>
#include <memory>

#include "apps/kvstore.hpp"
#include "apps/ycsb.hpp"
#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

constexpr int kClients = 64;

app::YcsbConfig ycsb_config(bool quick) {
    app::YcsbConfig cfg;
    cfg.record_count = quick ? 10'000 : 100'000;
    cfg.field_length = 128;
    return cfg;
}

// Per-replica state machine for NeoBFT (shared preloaded template would
// break undo independence, so each replica loads its own copy).
std::function<std::unique_ptr<app::StateMachine>()> neo_app_factory(
    const std::shared_ptr<app::YcsbWorkload>& workload) {
    return [workload] {
        auto sm = std::make_unique<app::KvStateMachine>();
        workload->load_into(*sm);
        return sm;
    };
}

// Baseline replicas execute through a plain closure over a KvStateMachine.
std::function<std::function<Bytes(BytesView)>()> baseline_app_factory(
    const std::shared_ptr<app::YcsbWorkload>& workload) {
    return [workload]() -> std::function<Bytes(BytesView)> {
        auto sm = std::make_shared<app::KvStateMachine>();
        workload->load_into(*sm);
        return [sm](BytesView op) { return sm->execute(op); };
    };
}

OpGen ycsb_ops(const std::shared_ptr<app::YcsbWorkload>& base_cfg) {
    // One generator stream per client, deterministic. Generators are built
    // eagerly so the callback only ever touches its own client's entry —
    // clients on different simulator partitions run concurrently, and a
    // lazily-populated shared map would race.
    auto gens = std::make_shared<std::vector<std::shared_ptr<app::YcsbWorkload>>>();
    auto cfg = base_cfg->config();
    gens->reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        gens->push_back(std::make_shared<app::YcsbWorkload>(
            cfg, 1000 + static_cast<std::uint64_t>(c)));
    }
    return [gens](int client, std::uint64_t) {
        return (*gens)[static_cast<std::size_t>(client)]->next_op().serialize();
    };
}

}  // namespace

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "fig10_ycsb");
    std::printf("=== Figure 10: YCSB-A over the replicated B-Tree KV store ===\n");
    std::printf("%dK records, 128-byte fields, 50/50 read-update, zipfian\n\n",
                bm.quick() ? 10 : 100);

    const sim::Time warmup = bm.quick() ? 10 * sim::kMillisecond : 30 * sim::kMillisecond;
    const sim::Time measure = bm.quick() ? 40 * sim::kMillisecond : 120 * sim::kMillisecond;

    std::vector<BenchPointSpec> points;
    for (System sys : kAllSystems) {
        points.push_back({
            system_label(sys),
            {{"clients", static_cast<double>(kClients)}},
            [sys, &bm, warmup, measure](RunCtx& ctx) {
                // The workload template is per run: the app factories load
                // it into each replica on the worker thread. The unreplicated
                // server ignores them and echoes, so its row is the echo
                // service rate, an upper bound (EXPERIMENTS.md).
                auto workload =
                    std::make_shared<app::YcsbWorkload>(ycsb_config(bm.quick()), 17);
                CommonParams p;
                p.n_clients = kClients;
                ctx.apply(p);
                if (sys == System::kHotStuff) p.batch_max = 32;
                p.app_factory = neo_app_factory(workload);
                p.baseline_app_factory = baseline_app_factory(workload);
                auto d = make_system(sys, p);
                auto obs = ctx.attach(*d);
                Measured m = run_closed_loop(*d, ycsb_ops(workload), warmup, measure);
                return std::map<std::string, double>{{"tput_ops", m.throughput_ops},
                                                     {"p50_us", m.p50_us},
                                                     {"p99_us", m.p99_us}};
            },
            sys == System::kNeoHm,
        });
    }
    std::vector<PointResult> results = bm.run(points);

    for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("  %-28s %10.0f txns/s   (p50 %.1fus)\n", system_name(kAllSystems[i]),
                    results[i].mean("tput_ops"), results[i].mean("p50_us"));
    }

    std::printf("\npaper anchor: NeoBFT above all baselines; batching efficiency drops\n");
    std::printf("for the baselines with the larger KV requests\n");
    return 0;
}
