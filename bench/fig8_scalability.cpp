// Figure 8: NeoBFT throughput as the replica count grows to 100 (software
// sequencer profile, matching the paper's EC2 methodology).
//
// paper: Neo-PK loses only ~13% from 4 to 100 replicas (constant per-replica
//        work); Neo-HM decays with group size (ceil(n/4) packets/request).
#include <cstdio>

#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

BenchPointSpec scale_point(NeoVariant variant, int replicas) {
    std::string prefix = variant == NeoVariant::kHm ? "neo_hm" : "neo_pk";
    return {
        prefix + ".n" + std::to_string(replicas),
        {{"replicas", static_cast<double>(replicas)}},
        [variant, replicas](RunCtx& ctx) {
            NeoParams p;
            p.n_replicas = replicas;
            p.n_clients = replicas > 50 ? 32 : 48;  // enough closed-loop clients to saturate
            p.variant = variant;
            p.software_sequencer = true;
            ctx.apply(p);
            // Decorrelate the sweep points (as the fixed-seed version did).
            p.seed += static_cast<std::uint64_t>(replicas);
            auto d = make_neobft(p);
            auto obs = ctx.attach(*d);
            Measured m = run_closed_loop(
                *d, echo_ops(64), 10 * sim::kMillisecond,
                replicas > 30 ? 30 * sim::kMillisecond : 80 * sim::kMillisecond);
            return std::map<std::string, double>{{"tput_ops", m.throughput_ops}};
        },
    };
}

}  // namespace

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "fig8_scalability");
    std::printf("=== Figure 8: NeoBFT throughput vs number of replicas ===\n");
    std::printf("(software sequencer profile; paper ran this on EC2 with a software switch)\n\n");

    const std::vector<int> replica_counts =
        bm.quick() ? std::vector<int>{4, 22} : std::vector<int>{4, 10, 22, 40, 100};
    std::vector<BenchPointSpec> points;
    for (int n : replica_counts) points.push_back(scale_point(NeoVariant::kHm, n));
    for (int n : replica_counts) points.push_back(scale_point(NeoVariant::kPk, n));
    std::vector<PointResult> results = bm.run(points);

    TablePrinter table({"replicas", "Neo-HM_ops", "Neo-PK_ops"});
    for (std::size_t i = 0; i < replica_counts.size(); ++i) {
        table.row({std::to_string(replica_counts[i]), fmt_double(results[i].mean("tput_ops"), 0),
                   fmt_double(results[replica_counts.size() + i].mean("tput_ops"), 0)});
    }
    std::printf("\npaper anchors: Neo-PK -13%% from 4 to 100 replicas; Neo-HM decays faster\n");
    return 0;
}
