// Table 1: bottleneck message complexity and authenticator complexity,
// measured empirically per committed request while sweeping N, plus the
// analytic columns from the paper.
#include <cstdio>
#include <memory>

#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

// Counters are measured once the warmup window closes, so the per-request
// figures reflect steady state only.
std::map<std::string, double> measure(Deployment& d, sim::Time warmup, sim::Time measure_t) {
    std::vector<NodeId> reps = d.replica_ids();
    Measured m = run_closed_loop(d, echo_ops(64), warmup, measure_t, [&d, &reps] {
        d.network().reset_counters();
        for (NodeId r : reps) {
            if (auto* meter = d.replica_meter(r)) meter->reset_counters();
        }
    });

    std::uint64_t max_msgs = 0;
    std::uint64_t auth_total = 0;
    for (NodeId r : reps) {
        max_msgs = std::max(max_msgs, d.network().delivered_to(r));
        if (auto* meter = d.replica_meter(r)) {
            auth_total += meter->signs + meter->verifies + meter->macs;
        }
    }
    double reqs = std::max<double>(1, static_cast<double>(m.completed));
    return {
        {"bottleneck_msgs_per_req", static_cast<double>(max_msgs) / reqs},
        {"authenticators_per_req", static_cast<double>(auth_total) / reqs},
    };
}

/// Table 1's point names spell the NeoBFT rows "neobft_*", after the paper's
/// table, where the figures use "neo_*".
std::string row_label(System s) {
    std::string label = system_label(s);
    return neo_variant(s) ? "neobft" + label.substr(3) : label;
}

CommonParams params(int n, int clients, const RunCtx& ctx) {
    CommonParams p;
    p.n_replicas = n;
    p.n_clients = clients;
    ctx.apply(p);
    return p;
}

}  // namespace

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "table1_complexity");
    std::printf("=== Table 1: complexity comparison (measured per committed request) ===\n");
    std::printf("analytic columns (paper):\n");
    std::printf("  protocol   repl.factor  bottleneck  authenticators  delays\n");
    std::printf("  PBFT       3f+1         O(N)        O(N^2)          5\n");
    std::printf("  Zyzzyva    3f+1         O(N)        O(N)            3\n");
    std::printf("  SBFT       3f+1         O(N)        O(N)            6   (not measured)\n");
    std::printf("  HotStuff   3f+1         O(N)        O(N)            4\n");
    std::printf("  A2M-PBFT   2f+1         O(N)        O(N^2)          5   (not measured)\n");
    std::printf("  MinBFT     2f+1         O(N)        O(N^2)          4\n");
    std::printf("  NeoBFT     3f+1         O(1)        O(N)            2\n\n");

    const sim::Time warm = bm.quick() ? 5 * sim::kMillisecond : 20 * sim::kMillisecond;
    const sim::Time meas = bm.quick() ? 30 * sim::kMillisecond : 100 * sim::kMillisecond;
    const std::vector<int> group_sizes = bm.quick() ? std::vector<int>{4} : std::vector<int>{4, 7, 10};

    // The O(1) bottleneck claim is group-size agnostic for aom-pk; aom-hm
    // replicas receive ceil(N/4) subgroup packets (§6.3).
    const std::vector<System> protos = {System::kNeoHm,   System::kNeoPk,    System::kPbft,
                                        System::kZyzzyva, System::kHotStuff, System::kMinBft};
    std::vector<BenchPointSpec> points;
    for (int n : group_sizes) {
        for (System sys : protos) {
            points.push_back({
                "n" + std::to_string(n) + "." + row_label(sys),
                {{"replicas", static_cast<double>(n)}},
                [sys, n, warm, meas](RunCtx& ctx) {
                    auto d = make_system(sys, params(n, 16, ctx));
                    auto obs = ctx.attach(*d);
                    return measure(*d, warm, meas);
                },
                sys == System::kNeoHm && n == 4,
            });
        }
    }

    // Message-delay column: idle-system commit latency. Absolute values
    // include constant crypto latencies; the paper's delay counts predict
    // the ORDERING (NeoBFT 2 < Zyzzyva 3 < MinBFT/HotStuff 4 < PBFT 5, with
    // per-protocol crypto shifting the constants).
    struct DelayRow {
        System sys;
        const char* paper_delays;
    };
    const std::vector<DelayRow> delays = {{System::kNeoHm, "2"},   {System::kZyzzyva, "3"},
                                          {System::kPbft, "5"},    {System::kMinBft, "4"},
                                          {System::kHotStuff, "4"}};
    const sim::Time delay_meas = bm.quick() ? 5 * sim::kMillisecond : 20 * sim::kMillisecond;
    for (const DelayRow& row : delays) {
        points.push_back({
            "delay." + row_label(row.sys),
            {},
            [sys = row.sys, delay_meas](RunCtx& ctx) {
                CommonParams p = params(4, 1, ctx);
                p.batch_delay = 10 * sim::kMicrosecond;  // baselines only; NeoBFT has no batcher
                auto d = make_system(sys, p);
                auto obs = ctx.attach(*d);
                Measured m = run_closed_loop(*d, echo_ops(64), 0, delay_meas);
                return std::map<std::string, double>{{"latency_us", m.p50_us}};
            },
            false,
        });
    }

    std::vector<PointResult> results = bm.run(points);

    std::size_t i = 0;
    for (int n : group_sizes) {
        std::printf("--- N = %d (f = %d) ---\n", n, (n - 1) / 3);
        TablePrinter table({"protocol", "bottleneck_msgs/req", "authenticators/req"});
        for (System sys : protos) {
            const PointResult& r = results[i++];
            table.row({system_name(sys), fmt_double(r.mean("bottleneck_msgs_per_req"), 2),
                       fmt_double(r.mean("authenticators_per_req"), 2)});
        }
        std::printf("\n");
    }

    std::printf("--- message delays (idle-system commit latency, N=4) ---\n");
    TablePrinter table({"protocol", "paper_delays", "latency_us"});
    for (const DelayRow& row : delays) {
        const PointResult& r = results[i++];
        table.row({system_name(row.sys), row.paper_delays, fmt_double(r.mean("latency_us"), 1)});
    }
    return 0;
}
