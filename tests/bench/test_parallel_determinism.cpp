// Integration: a multi-seed sweep fanned across a 4-worker pool must
// produce byte-identical results to the same sweep run sequentially —
// scheduling must never leak into the science. Runs under the `tsan` label
// too: concurrent Simulator instances sharing a process is exactly what
// ThreadSanitizer needs to see.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "harness/bench_json.hpp"
#include "harness/compare.hpp"
#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

std::vector<BenchPointSpec> sweep_points() {
    std::vector<BenchPointSpec> points;
    // A NeoBFT point where the seed visibly matters (random drops).
    points.push_back({
        "neo_hm.drops",
        {{"drop_rate_pct", 0.1}},
        [](RunCtx& ctx) {
            NeoParams p;
            p.n_clients = 4;
            p.seed = ctx.seed();
            p.drop_rate = 0.001;
            p.receiver.gap_timeout = 100 * sim::kMicrosecond;
            auto d = make_neobft(p);
            auto obs = ctx.attach(*d);
            Measured m = run_closed_loop(*d, echo_ops(64), 2 * sim::kMillisecond,
                                         8 * sim::kMillisecond);
            return std::map<std::string, double>{{"tput_ops", m.throughput_ops},
                                                 {"p50_us", m.p50_us},
                                                 {"completed", static_cast<double>(m.completed)}};
        },
    });
    // A baseline point, so the sweep mixes deployment types.
    points.push_back({
        "pbft.c4",
        {{"clients", 4}},
        [](RunCtx& ctx) {
            CommonParams p;
            p.n_clients = 4;
            p.seed = ctx.seed();
            auto d = make_system(System::kPbft, p);
            auto obs = ctx.attach(*d);
            Measured m = run_closed_loop(*d, echo_ops(64), 2 * sim::kMillisecond,
                                         8 * sim::kMillisecond);
            return std::map<std::string, double>{{"tput_ops", m.throughput_ops},
                                                 {"p50_us", m.p50_us},
                                                 {"completed", static_cast<double>(m.completed)}};
        },
    });
    return points;
}

std::string run_sweep(const std::string& jobs) {
    std::vector<std::string> strs = {"prog", "--seeds", "2", "--jobs", jobs};
    std::vector<char*> argv;
    for (auto& s : strs) argv.push_back(s.data());
    BenchMain bm(static_cast<int>(argv.size()), argv.data(), "determinism_sweep");
    bm.run(sweep_points());
    // host_* wall-clock metrics are the one sanctioned nondeterminism in a
    // suite document; everything else must be byte-identical.
    return strip_host_metrics(Json::parse(bm.suite().to_json())).dump() + "\n";
}

}  // namespace

TEST(ParallelDeterminism, FourJobSweepIsByteIdenticalToSequential) {
    std::string sequential = run_sweep("1");
    std::string parallel = run_sweep("4");
    EXPECT_EQ(sequential, parallel);

    // Sanity on the content: both seeds completed work, and the drop-point
    // seeds genuinely differ (so the equality above is not vacuous).
    Json doc = Json::parse(sequential);
    const Json& drop_values =
        doc.at("points").items()[0].at("metrics").at("completed").at("values");
    ASSERT_EQ(drop_values.items().size(), 2u);
    EXPECT_GT(drop_values.items()[0].number(), 0);
    EXPECT_GT(drop_values.items()[1].number(), 0);
    const Json& tput_values =
        doc.at("points").items()[0].at("metrics").at("tput_ops").at("values");
    EXPECT_NE(tput_values.items()[0].number(), tput_values.items()[1].number());
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable) {
    EXPECT_EQ(run_sweep("4"), run_sweep("4"));
}
