// Ablation: Neo-BN's confirm-batching window (§6.2 "batch processing
// confirm messages"). Small windows cost messages and CPU; large windows
// cost latency. The paper's claim — high throughput at the expense of
// latency — is the right-hand side of this sweep. The confirm batcher is
// adaptive now (DESIGN.md §4.3): confirm_flush_interval is the
// controller's latency budget and confirm_batch_max its size cap, so the
// swept knob remains the latency end of the trade.
#include <cstdio>

#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "ablation_confirm_batching");
    std::printf("=== Ablation: Neo-BN confirm flush interval ===\n\n");

    const std::vector<sim::Time> flushes =
        bm.quick() ? std::vector<sim::Time>{5 * sim::kMicrosecond, 100 * sim::kMicrosecond}
                   : std::vector<sim::Time>{5 * sim::kMicrosecond, 20 * sim::kMicrosecond,
                                            50 * sim::kMicrosecond, 100 * sim::kMicrosecond,
                                            200 * sim::kMicrosecond};
    const sim::Time warmup = bm.quick() ? 10 * sim::kMillisecond : 40 * sim::kMillisecond;
    const sim::Time measure = bm.quick() ? 40 * sim::kMillisecond : 160 * sim::kMillisecond;

    std::vector<BenchPointSpec> points;
    for (sim::Time flush : flushes) {
        points.push_back({
            "neo_bn.flush" + fmt_double(sim::to_us(flush), 0),
            {{"flush_us", sim::to_us(flush)}},
            [flush, warmup, measure](RunCtx& ctx) {
                NeoParams p;
                p.n_clients = 32;
                ctx.apply(p);
                p.variant = NeoVariant::kBn;
                p.receiver.confirm_flush_interval = flush;
                p.receiver.gap_timeout = 5 * sim::kMillisecond;  // stay out of gap agreement
                auto d = make_neobft(p);
                auto obs = ctx.attach(*d);
                Measured m = run_closed_loop(*d, echo_ops(64), warmup, measure);
                return std::map<std::string, double>{{"tput_ops", m.throughput_ops},
                                                     {"p50_us", m.p50_us},
                                                     {"p99_us", m.p99_us}};
            },
        });
    }
    std::vector<PointResult> results = bm.run(points);

    TablePrinter table({"flush_us", "tput_ops", "p50_us", "p99_us"});
    for (std::size_t i = 0; i < flushes.size(); ++i) {
        const PointResult& r = results[i];
        table.row({fmt_double(sim::to_us(flushes[i]), 0), fmt_double(r.mean("tput_ops"), 0),
                   fmt_double(r.mean("p50_us"), 1), fmt_double(r.mean("p99_us"), 1)});
    }
    std::printf("\nreports the §6.2 trade-off: the flush window sets confirm batch sizes\n");
    std::printf("(messages + verify-batch latency vs per-packet overhead); near saturation\n");
    std::printf("the verification pipeline dominates and the sensitivity shrinks\n");
    return 0;
}
