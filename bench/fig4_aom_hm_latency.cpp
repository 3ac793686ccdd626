// Figure 4: latency distribution of the HMAC variant of aom at 25/50/99%
// load (group size 4, 64-byte packets, switch-isolated latency).
#include <cstdio>

#include "harness/aom_bench.hpp"
#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

constexpr int kReceivers = 4;

BenchPointSpec load_point(double load, bool quick) {
    return {
        "aom_hm.load" + fmt_double(load * 100, 0),
        {{"load_pct", load * 100}},
        [load, quick](RunCtx& ctx) {
            AomBench bench(aom::AuthVariant::kHmacVector, kReceivers, ctx.seed(), {},
                           ctx.sim_threads(), ctx.crypto_mode());
            sim::Time service = bench.service_ns(aom::AuthVariant::kHmacVector, kReceivers);
            // Offered load as a fraction of the pipeline's saturation rate.
            auto gap = static_cast<sim::Time>(static_cast<double>(service) / load);
            auto obs = ctx.attach(bench.simulator(),
                                  [&bench, &ctx](obs::Registry& reg, obs::TraceSink* tr) {
                                      bench.register_obs(reg, ctx.label(), tr);
                                  });
            AomBenchResult r = bench.run(quick ? 20'000 : 200'000, gap);
            return std::map<std::string, double>{
                {"p25_us", r.latency->percentile(25)},
                {"p50_us", r.latency->percentile(50)},
                {"p75_us", r.latency->percentile(75)},
                {"p99_us", r.latency->percentile(99)},
                {"p999_us", r.latency->percentile(99.9)},
            };
        },
    };
}

}  // namespace

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "fig4_aom_hm_latency");
    std::printf("=== Figure 4: aom-hm latency distribution (group size 4) ===\n");
    std::printf("paper: median ~9us, 99.9%% within 0.7%% of median below saturation;\n");
    std::printf("       long queuing tail at 99%% load\n\n");

    const std::vector<double> loads = {0.25, 0.50, 0.99};
    std::vector<BenchPointSpec> points;
    for (double load : loads) points.push_back(load_point(load, bm.quick()));
    std::vector<PointResult> results = bm.run(points);

    TablePrinter table({"load", "p25_us", "p50_us", "p75_us", "p99_us", "p99.9_us"});
    for (std::size_t i = 0; i < loads.size(); ++i) {
        table.row({fmt_double(loads[i] * 100, 0) + "%", fmt_double(results[i].mean("p25_us"), 2),
                   fmt_double(results[i].mean("p50_us"), 2),
                   fmt_double(results[i].mean("p75_us"), 2),
                   fmt_double(results[i].mean("p99_us"), 2),
                   fmt_double(results[i].mean("p999_us"), 2)});
    }

    if (!bm.quick()) {
        std::printf("\nCDF at 50%% load (value_us, cumulative):\n");
        AomBench bench(aom::AuthVariant::kHmacVector, kReceivers, bm.base_seed(), {}, 1,
                       bm.opt().crypto_mode());
        sim::Time service = bench.service_ns(aom::AuthVariant::kHmacVector, kReceivers);
        AomBenchResult r = bench.run(200'000, service * 2);
        for (auto [v, f] : r.latency->cdf(11)) {
            std::printf("  %8.2f  %5.2f\n", v, f);
        }
    }
    return 0;
}
