// Byzantine scenario matrix: every canonical fault scenario runs over
// every protocol in the evaluation, with the auditor checking safety
// (expected violations must fire, anything else fails) and the liveness
// floor on each cell — plus the engine's determinism contract: same-seed
// scenario outcomes are byte-identical across --sim-threads {1, 8}.
//
// tsan label: scenario faults mutate cross-node shared state (network
// blocks, node-down flags, sequencer fault knobs) from global events
// between PDES windows while replicas run on partition workers — exactly
// the cross-thread pattern the ThreadSanitizer job exists to check.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "harness/harness.hpp"
#include "harness/scenario_run.hpp"
#include "scenario/scenario.hpp"

namespace neo::bench {
namespace {

constexpr std::uint64_t kSeed = 777;
constexpr sim::Time kHorizon = 20 * sim::kMillisecond;

std::unique_ptr<Deployment> make_proto(const std::string& proto, unsigned sim_threads = 1,
                                       std::uint64_t seed = kSeed) {
    CommonParams p;
    p.n_clients = 4;
    p.seed = seed;
    p.sim_threads = sim_threads;
    return make_scenario_system(system_from_label(proto), p);
}

scenario::Scenario scenario_by_name(const std::string& name,
                                    const std::vector<NodeId>& replicas) {
    for (auto& sc : scenario::standard_suite(replicas, kHorizon)) {
        if (sc.name == name) return sc;
    }
    ADD_FAILURE() << "unknown scenario " << name;
    return {};
}

std::vector<std::string> scenario_names() {
    std::vector<std::string> names;
    for (const auto& sc : scenario::standard_suite({1, 2, 3, 4}, kHorizon)) {
        names.push_back(sc.name);
    }
    return names;
}

using Cell = std::tuple<std::string, std::string>;  // (protocol, scenario)

class ScenarioMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(ScenarioMatrix, PassesSafetyAndLiveness) {
    const auto& [proto, name] = GetParam();
    auto d = make_proto(proto);
    scenario::Scenario sc = scenario_by_name(name, d->replica_ids());
    ScenarioOutcome out = run_scenario(*d, sc, echo_ops(64), kHorizon);
    EXPECT_TRUE(out.ok) << proto << " " << out.to_string();
}

std::vector<Cell> all_cells() {
    std::vector<Cell> cells;
    for (const std::string& proto :
         {"neo_hm", "neo_pk", "pbft", "zyzzyva", "hotstuff", "minbft"}) {
        for (const std::string& name : scenario_names()) cells.push_back({proto, name});
    }
    return cells;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ScenarioMatrix, ::testing::ValuesIn(all_cells()),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                             return std::get<0>(info.param) + "_" + std::get<1>(info.param);
                         });

TEST(SeqStall, FailsOverOnceAndEveryClientCommitsAfterTheStall) {
    // seq_stall stalls only the first group's home switch: the config
    // service fails the group over to the standby once, and every client
    // commits a request it issued after the stall. (Stalling every switch
    // would leave no live standby to fail over to.)
    constexpr sim::Time kStallAt = 5 * sim::kMillisecond;
    constexpr sim::Time kEnd = 200 * sim::kMillisecond;
    NeoParams p;
    p.n_clients = 4;
    p.seed = kSeed;
    auto d = make_neobft(p);
    scenario::apply(scenario::seq_stall(kStallAt), *d);
    std::vector<std::uint64_t> after(4, 0);
    start_closed_loop(*d, echo_ops(64), kEnd, [&after](int c, sim::Time begin, sim::Time) {
        if (begin > kStallAt) ++after[static_cast<std::size_t>(c)];
    });
    d->simulator().run_until(kEnd);

    EXPECT_EQ(d->failovers(), 1u);
    for (std::size_t c = 0; c < after.size(); ++c) {
        EXPECT_GT(after[c], 0u) << "client " << c << " never committed after the stall";
    }
}

scenario::Scenario mute_at_start(NodeId victim) {
    scenario::Scenario sc;
    sc.name = "mute";
    sc.events.push_back({0, scenario::FaultKind::kMute, {victim}, 0, 0.0, 0});
    return sc;
}

TEST(MuteFault, ZyzzyvaFIsZyzzyvaWithItsLastReplicaMuted) {
    // One fault surface: kMute on the last Zyzzyva replica at t=0 measures
    // exactly what the Zyzzyva-F system row does.
    CommonParams p;
    p.n_clients = 4;
    p.seed = kSeed;
    auto measure = [](Deployment& d) {
        return measured_metrics(
            run_closed_loop(d, echo_ops(64), sim::kMillisecond, 10 * sim::kMillisecond));
    };
    auto row = make_system(System::kZyzzyvaF, p);
    auto muted = make_system(System::kZyzzyva, p);
    scenario::apply(mute_at_start(muted->replica_ids().back()), *muted);
    auto honest = make_system(System::kZyzzyva, p);

    const auto expected = measure(*row);
    EXPECT_EQ(measure(*muted), expected);
    // The mute is what the row measures: without it the numbers differ.
    EXPECT_NE(measure(*honest), expected);
}

TEST(MuteFault, OneMutedReplicaKeepsEveryClientCommitting) {
    // Partitioned, so the mute flag set by the global event is read from
    // partition workers.
    for (const std::string& proto : {"pbft", "hotstuff", "minbft", "neo_hm"}) {
        auto d = make_proto(proto, 4);
        const NodeId victim = d->replica_ids().back();
        scenario::Scenario sc = mute_at_start(victim);
        sc.min_commits_per_client = 10;
        ScenarioOutcome out = run_scenario(*d, sc, echo_ops(64), kHorizon);
        EXPECT_TRUE(out.ok) << proto << " " << out.to_string();
        // Muted from t=0, the victim never ran a handler, so it never
        // touched its crypto.
        const crypto::CostMeter* meter = d->replica_meter(victim);
        ASSERT_NE(meter, nullptr) << proto;
        EXPECT_EQ(meter->signs + meter->verifies + meter->macs, 0u) << proto;
    }
}

TEST(ScenarioDeterminism, OutcomeByteIdenticalAcrossThreadCounts) {
    // The engine schedules every fault as a global event, so a scenario
    // run — faults, recovery, auditor stream and all — must be a pure
    // function of (seed, scenario), independent of worker threads.
    for (const std::string& proto : {"neo_hm", "neo_pk"}) {
        for (const std::string& name : {"crash_recover", "seq_equivocate"}) {
            std::string ref;
            std::size_t ref_records = 0;
            for (unsigned threads : {1u, 8u}) {
                auto d = make_proto(proto, threads);
                scenario::Scenario sc = scenario_by_name(name, d->replica_ids());
                ScenarioOutcome out = run_scenario(*d, sc, echo_ops(64), kHorizon);
                if (threads == 1) {
                    ref = out.to_string();
                    ref_records = d->auditor().records();
                } else {
                    EXPECT_EQ(out.to_string(), ref) << proto << " threads=" << threads;
                    EXPECT_EQ(d->auditor().records(), ref_records) << proto;
                }
            }
        }
    }
}

TEST(ScenarioDeterminism, FuzzCompositionsStableAcrossThreadCounts) {
    for (std::uint64_t seed : {3ull, 11ull}) {
        std::string ref;
        for (unsigned threads : {1u, 8u}) {
            auto d = make_proto("neo_hm", threads, seed);
            scenario::Scenario sc = scenario::fuzz(seed, d->replica_ids(), kHorizon);
            ScenarioOutcome out = run_scenario(*d, sc, echo_ops(64), kHorizon);
            EXPECT_TRUE(out.ok) << out.to_string();
            if (threads == 1) {
                ref = out.to_string();
            } else {
                EXPECT_EQ(out.to_string(), ref) << "fuzz seed " << seed;
            }
        }
    }
}

}  // namespace
}  // namespace neo::bench
