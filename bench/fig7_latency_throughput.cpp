// Figure 7: latency vs throughput for NeoBFT (HM / PK / Byzantine-network)
// against Unreplicated, PBFT, Zyzzyva (+faulty), HotStuff, and MinBFT.
// Echo-RPC workload, 4 replicas (f=1), increasing closed-loop clients.
#include <cstdio>

#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "fig7_latency_throughput");
    std::printf("=== Figure 7: latency vs throughput, echo-RPC, N=4 (f=1) ===\n");
    std::printf("paper: Neo-HM tput = 2.5x PBFT, 3.4x HotStuff, 4.1x MinBFT, 1.8x Zyzzyva;\n");
    std::printf("       Zyzzyva-F tput drop >54%%; Neo-PK ~60K below Neo-HM;\n");
    std::printf("       Neo-HM latency 14.7x better than PBFT, 42x HotStuff, 8.6x Zyzzyva,\n");
    std::printf("       6.1x MinBFT\n");

    const std::vector<int> client_counts =
        bm.quick() ? std::vector<int>{4, 32}
                   : std::vector<int>{1, 2, 4, 8, 16, 32, 64, 128, 256};
    const sim::Time warmup = bm.quick() ? 10 * sim::kMillisecond : 40 * sim::kMillisecond;
    const sim::Time measure = bm.quick() ? 40 * sim::kMillisecond : 160 * sim::kMillisecond;

    std::vector<BenchPointSpec> points;
    for (System sys : kAllSystems) {
        for (int clients : client_counts) {
            points.push_back({
                system_label(sys) + std::string(".c") + std::to_string(clients),
                {{"clients", static_cast<double>(clients)}},
                [sys, clients, warmup, measure](RunCtx& ctx) {
                    CommonParams p;
                    p.n_clients = clients;
                    ctx.apply(p);
                    // Modest batching: the paper notes aggressive batching
                    // lifts HotStuff's throughput but pushes latency >10ms.
                    if (sys == System::kHotStuff) p.batch_max = 8;
                    auto d = make_system(sys, p);
                    auto obs = ctx.attach(*d);
                    Measured m = run_closed_loop(*d, echo_ops(64), warmup, measure);
                    return measured_metrics(m);
                },
                sys == System::kNeoHm,
            });
        }
    }
    std::vector<PointResult> results = bm.run(points);

    std::size_t i = 0;
    for (System sys : kAllSystems) {
        std::printf("\n--- %s ---\n", system_name(sys));
        TablePrinter table(
            {"clients", "tput_ops", "p50_us", "mean_us", "p99_us", "net_us", "cpu_us", "queue_us"});
        for (int clients : client_counts) {
            const PointResult& r = results[i++];
            table.row({std::to_string(clients), fmt_double(r.mean("tput_ops"), 0),
                       fmt_double(r.mean("p50_us"), 1), fmt_double(r.mean("mean_us"), 1),
                       fmt_double(r.mean("p99_us"), 1), fmt_double(r.mean("net_us_per_op"), 1),
                       fmt_double(r.mean("cpu_us_per_op"), 1),
                       fmt_double(r.mean("queue_us_per_op"), 1)});
        }
    }
    return 0;
}
