// Table 3: FPGA resource usage of the aom public-key coprocessor.
//
// The paper reports Alveo U50 LUT/register/BRAM/DSP utilisation. As with
// Table 2, synthesis figures have no software equivalent; this bench reports
// the coprocessor model's operational parameters and measures the
// signing-ratio controller's behaviour across offered loads (the dynamic
// quantity the hardware design exists to manage).
#include <cstdio>

#include "harness/aom_bench.hpp"
#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "table3_fpga_resources");
    std::printf("=== Table 3: aom-pk FPGA coprocessor model ===\n\n");
    std::printf("paper (Alveo U50 synthesis):\n");
    std::printf("  module    LUT     register  BRAM    DSP\n");
    std::printf("  pipeline  0.91%%   0.70%%     2.12%%   0.57%%\n");
    std::printf("  signer    21.0%%   19.4%%     10.71%%  28.52%%\n");
    std::printf("  total     34.69%%  29.22%%    28.76%%  29.16%%\n\n");

    sim::PkPrecomputeConfig pre;
    std::printf("coprocessor model constants (this reproduction):\n");
    TablePrinter consts({"parameter", "value"});
    consts.row({"signer service time", std::to_string(sim::kPkSignServiceNs) + " ns (1.1 Mpps)"});
    consts.row({"sign round-trip latency", std::to_string(sim::kPkSignLatencyNs) + " ns"});
    consts.row({"chain stamping service", std::to_string(sim::kPkChainServiceNs) + " ns"});
    consts.row({"precompute table capacity", std::to_string(pre.table_capacity)});
    consts.row({"low-water mark", std::to_string(pre.low_water_mark)});
    consts.row({"precompute refill rate", fmt_double(pre.refill_per_sec, 0) + " entries/s"});

    const std::vector<double> offered = bm.quick()
                                            ? std::vector<double>{0.5, 1.5}
                                            : std::vector<double>{0.25, 0.5, 1.0, 1.5, 2.5};
    const std::size_t packets = bm.quick() ? 20'000 : 200'000;
    std::vector<BenchPointSpec> points;
    for (double mpps : offered) {
        points.push_back({
            "aom_pk.offered" + fmt_double(mpps, 2),
            {{"offered_mpps", mpps}},
            [mpps, packets](RunCtx& ctx) {
                aom::SequencerConfig cfg;
                cfg.precompute.table_capacity = 2'048;
                cfg.precompute.low_water_mark = 256;
                cfg.precompute.refill_per_sec = 1'000'000.0;
                auto bench = std::make_unique<AomBench>(aom::AuthVariant::kPublicKey, 4,
                                                        ctx.seed(), cfg, ctx.sim_threads(),
                                                        ctx.crypto_mode());
                std::string label = ctx.label();
                auto obs = ctx.attach(bench->simulator(),
                                      [&bench, label](obs::Registry& reg, obs::TraceSink* tr) {
                                          bench->register_obs(reg, label, tr);
                                      });
                auto gap = static_cast<sim::Time>(1000.0 / mpps);
                bench->run(packets, std::max<sim::Time>(1, gap));
                double signed_pct =
                    100.0 * static_cast<double>(bench->sequencer().signatures_generated()) /
                    static_cast<double>(bench->sequencer().packets_sequenced());
                return std::map<std::string, double>{
                    {"signed_pct", signed_pct},
                    {"stock_left", bench->sequencer().precompute_stock()},
                    {"tail_drops", static_cast<double>(bench->sequencer().tail_drops())},
                };
            },
        });
    }
    std::vector<PointResult> results = bm.run(points);

    std::printf("\nsigning-ratio controller behaviour vs offered load:\n");
    TablePrinter table({"offered_Mpps", "signed_pct", "stock_left", "tail_drops"});
    for (std::size_t i = 0; i < offered.size(); ++i) {
        const PointResult& r = results[i];
        table.row({fmt_double(offered[i], 2), fmt_double(r.mean("signed_pct"), 1),
                   fmt_double(r.mean("stock_left"), 0), fmt_double(r.mean("tail_drops"), 0)});
    }
    std::printf("\n(above the precompute refill rate the controller rides the hash chain;\n");
    std::printf(" hardware utilisation percentages are not reproducible in software)\n");
    return 0;
}
