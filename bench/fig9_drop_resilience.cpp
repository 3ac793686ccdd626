// Figure 9: NeoBFT maximum throughput under simulated network packet drops
// (0.001% .. 1%).
//
// paper: largely unaffected at moderate drop rates (drop-notifications and
//        QUERY recovery are cheap); visible decline at 1%.
#include <cstdio>

#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

BenchPointSpec drop_point(NeoVariant variant, double drop_rate, bool quick) {
    std::string prefix = variant == NeoVariant::kHm ? "neo_hm" : "neo_pk";
    return {
        prefix + ".drop" + fmt_double(drop_rate * 100, 4),
        {{"drop_rate_pct", drop_rate * 100}},
        [variant, drop_rate, quick](RunCtx& ctx) {
            NeoParams p;
            p.n_clients = 64;
            p.variant = variant;
            p.drop_rate = drop_rate;
            // Reorder window: the simulated fabric jitters by <1us, so a
            // missing sequence number is a real loss after ~100us; a long
            // timeout would stall the in-order pipeline for the whole wait
            // (drop-notifications gate delivery of everything behind them).
            p.receiver.gap_timeout = 100 * sim::kMicrosecond;
            ctx.apply(p);
            p.seed += static_cast<std::uint64_t>(drop_rate * 1e7);
            auto d = make_neobft(p);
            auto obs = ctx.attach(*d);
            Measured m = run_closed_loop(*d, echo_ops(64),
                                         quick ? 10 * sim::kMillisecond : 40 * sim::kMillisecond,
                                         quick ? 50 * sim::kMillisecond : 200 * sim::kMillisecond);
            return std::map<std::string, double>{{"tput_ops", m.throughput_ops}};
        },
    };
}

}  // namespace

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "fig9_drop_resilience");
    std::printf("=== Figure 9: NeoBFT throughput vs simulated drop rate ===\n\n");

    const std::vector<double> rates = bm.quick()
                                          ? std::vector<double>{0.0, 0.001}
                                          : std::vector<double>{0.0, 0.00001, 0.0001, 0.001, 0.01};
    std::vector<BenchPointSpec> points;
    for (double rate : rates) points.push_back(drop_point(NeoVariant::kHm, rate, bm.quick()));
    for (double rate : rates) points.push_back(drop_point(NeoVariant::kPk, rate, bm.quick()));
    std::vector<PointResult> results = bm.run(points);

    TablePrinter table({"drop_rate", "Neo-HM_ops", "Neo-PK_ops"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        table.row({fmt_double(rates[i] * 100, 4) + "%", fmt_double(results[i].mean("tput_ops"), 0),
                   fmt_double(results[rates.size() + i].mean("tput_ops"), 0)});
    }
    std::printf("\npaper anchors: flat through 0.1%%, visible drop at 1%%\n");
    return 0;
}
