// Ablation: the aom-pk signing-ratio controller (§4.4). Sweeping the
// pre-compute refill rate shows the design's central trade: when the stock
// cannot keep up, the controller rides the hash chain — receivers still
// authenticate everything, but batch latency grows.
#include <cstdio>
#include <memory>

#include "harness/aom_bench.hpp"
#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "ablation_signing_ratio");
    std::printf("=== Ablation: aom-pk precompute refill rate (offered load 0.8 Mpps) ===\n\n");

    const std::vector<double> refills =
        bm.quick() ? std::vector<double>{150'000.0, 800'000.0}
                   : std::vector<double>{50'000.0, 150'000.0, 400'000.0, 800'000.0, 1'200'000.0};
    const std::size_t packets = bm.quick() ? 20'000 : 200'000;

    std::vector<BenchPointSpec> points;
    for (double refill : refills) {
        points.push_back({
            "aom_pk.refill" + fmt_double(refill, 0),
            {{"refill_per_s", refill}},
            [refill, packets](RunCtx& ctx) {
                aom::SequencerConfig cfg;
                cfg.precompute.refill_per_sec = refill;
                cfg.precompute.table_capacity = 2'048;
                cfg.precompute.low_water_mark = 256;
                auto bench = std::make_unique<AomBench>(aom::AuthVariant::kPublicKey, 4,
                                                        ctx.seed(), cfg, ctx.sim_threads(),
                                                        ctx.crypto_mode());
                std::string label = ctx.label();
                auto obs = ctx.attach(bench->simulator(),
                                      [&bench, label](obs::Registry& reg, obs::TraceSink* tr) {
                                          bench->register_obs(reg, label, tr);
                                      });
                AomBenchResult r = bench->run(packets, 1'250);  // 0.8 Mpps offered
                double signed_pct =
                    100.0 * static_cast<double>(bench->sequencer().signatures_generated()) /
                    static_cast<double>(bench->sequencer().packets_sequenced());
                return std::map<std::string, double>{
                    {"signed_pct", signed_pct},
                    {"p50_us", r.latency->percentile(50)},
                    {"p99_us", r.latency->percentile(99)},
                    {"p999_us", r.latency->percentile(99.9)},
                };
            },
        });
    }
    std::vector<PointResult> results = bm.run(points);

    TablePrinter table({"refill_per_s", "signed_pct", "p50_us", "p99_us", "p99.9_us"});
    for (std::size_t i = 0; i < refills.size(); ++i) {
        const PointResult& r = results[i];
        table.row({fmt_double(refills[i], 0), fmt_double(r.mean("signed_pct"), 1),
                   fmt_double(r.mean("p50_us"), 2), fmt_double(r.mean("p99_us"), 2),
                   fmt_double(r.mean("p999_us"), 2)});
    }
    std::printf("\nexpected: below the offered load, signed%% ~ refill/load and the\n");
    std::printf("latency tail stretches to the next signature (chain-batch wait)\n");
    return 0;
}
