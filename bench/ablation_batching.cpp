// Ablation: baseline batch sizes. Reproduces the paper's remark that "more
// aggressive batching can further increase HotStuff's throughput to a level
// comparable to NeoBFT; however, its latency also increases to more than
// 10ms" (§6.2) — here visible as the throughput/latency trade as batch_max
// grows. Since the leader batchers went adaptive (DESIGN.md §4.3),
// batch_max is the controller's *cap*, not a fixed threshold — the sweep
// still measures the same trade because the cap is what load-proportional
// growth saturates against.
#include <cstdio>
#include <memory>

#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "ablation_batching");
    std::printf("=== Ablation: baseline request batching (256 clients) ===\n");

    const std::vector<std::size_t> batches =
        bm.quick() ? std::vector<std::size_t>{1, 64} : std::vector<std::size_t>{1, 4, 16, 64, 256};
    const sim::Time warmup = bm.quick() ? 10 * sim::kMillisecond : 40 * sim::kMillisecond;
    const sim::Time measure = bm.quick() ? 40 * sim::kMillisecond : 160 * sim::kMillisecond;

    const System fams[] = {System::kPbft, System::kHotStuff};
    std::vector<BenchPointSpec> points;
    for (System sys : fams) {
        for (std::size_t batch : batches) {
            points.push_back({
                system_label(sys) + std::string(".b") + std::to_string(batch),
                {{"batch_max", static_cast<double>(batch)}},
                [sys, batch, warmup, measure](RunCtx& ctx) {
                    CommonParams p;
                    p.n_clients = 256;
                    ctx.apply(p);
                    p.batch_max = batch;
                    p.batch_delay = 2 * sim::kMillisecond;  // large batches need patience
                    auto d = make_system(sys, p);
                    auto obs = ctx.attach(*d);
                    Measured m = run_closed_loop(*d, echo_ops(64), warmup, measure);
                    return std::map<std::string, double>{{"tput_ops", m.throughput_ops},
                                                         {"p50_us", m.p50_us},
                                                         {"p99_us", m.p99_us}};
                },
            });
        }
    }
    std::vector<PointResult> results = bm.run(points);

    std::size_t i = 0;
    for (System sys : fams) {
        std::printf("\n--- %s ---\n", system_name(sys));
        TablePrinter table({"batch_max", "tput_ops", "p50_us", "p99_us"});
        for (std::size_t batch : batches) {
            const PointResult& r = results[i++];
            table.row({std::to_string(batch), fmt_double(r.mean("tput_ops"), 0),
                       fmt_double(r.mean("p50_us"), 1), fmt_double(r.mean("p99_us"), 1)});
        }
    }

    std::printf("\nreference: Neo-HM needs NO protocol-level batching for its peak.\n");
    return 0;
}
