// Randomized PDES stress: 200 generated scenarios sweeping every protocol
// family (NeoBFT HM/PK/BN, PBFT, Zyzzyva, HotStuff, MinBFT), topology
// sizes, packet drops, Byzantine tampering and sequencer failover — each
// scenario executed on the serial engine and with 2 and 8 partitions. The
// contract under test is the PDES tentpole: the trace byte stream and the
// full metrics snapshot (every protocol/network counter) must be identical
// for every thread count.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "harness/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"

namespace neo::bench {
namespace {

constexpr System kProtos[] = {System::kNeoHm,   System::kNeoPk,    System::kNeoBn, System::kPbft,
                              System::kZyzzyva, System::kHotStuff, System::kMinBft};

struct Scenario {
    System proto;
    int n_replicas;
    int n_clients;
    double drop_rate;
    bool tamper;    // Byzantine-network scenarios only
    bool failover;  // NeoBFT scenarios only
    std::uint64_t seed;
};

/// Scenario generator: a pure function of the index, so every thread-count
/// run rebuilds the exact same case and the sweep is reproducible from a
/// failing test name alone.
Scenario make_scenario(int index) {
    StreamRng rng(0x57e55, static_cast<std::uint64_t>(index));
    Scenario sc;
    sc.proto = kProtos[rng.uniform(7)];
    const bool neo = neo_variant(sc.proto).has_value();
    sc.n_replicas = neo ? static_cast<int>(4 + 3 * rng.uniform(3))  // 4, 7, 10
                                 : static_cast<int>(4 + 3 * rng.uniform(2));
    sc.n_clients = static_cast<int>(2 + rng.uniform(3));
    const double rates[] = {0.0, 0.001, 0.01};
    sc.drop_rate = rates[rng.uniform(3)];
    sc.tamper = sc.proto == System::kNeoBn && rng.chance(0.5);
    sc.failover = neo && rng.chance(0.25);
    sc.seed = 7'000 + static_cast<std::uint64_t>(index);
    return sc;
}

std::unique_ptr<Deployment> build(const Scenario& sc, unsigned threads) {
    CommonParams base;
    base.n_replicas = sc.n_replicas;
    base.n_clients = sc.n_clients;
    base.seed = sc.seed;
    base.sim_threads = threads;
    base.drop_rate = sc.drop_rate;
    std::optional<NeoVariant> variant = neo_variant(sc.proto);
    if (!variant || sc.drop_rate == 0) return make_system(sc.proto, base);
    NeoParams p;
    static_cast<CommonParams&>(p) = base;
    p.variant = *variant;
    p.receiver.gap_timeout = 200 * sim::kMicrosecond;
    return make_neobft(p);
}

struct Outcome {
    std::string trace;
    std::string metrics;
    std::uint64_t completed = 0;

    friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome run_scenario(const Scenario& sc, unsigned threads) {
    auto d = build(sc, threads);
    obs::TraceSink sink;
    d->simulator().set_trace(&sink);
    obs::Registry reg;
    d->register_obs(reg, "run", &sink);

    if (sc.tamper) {
        // Deterministic corruption of a sparse pseudo-random packet subset.
        d->network().set_tamper([](NodeId from, NodeId to, Bytes& data) {
            std::uint64_t h = (from * 31 + to) * 1099511628211ull + data.size();
            if (h % 97 == 0 && !data.empty()) data.back() ^= 0xa5;
            return sim::TamperAction::kDeliver;
        });
    }
    if (sc.failover) {
        // Mid-measurement sequencer kill, injected as a global event so it
        // lands between windows on every engine.
        scenario::apply(scenario::seq_stall(2 * sim::kMillisecond), *d);
    }

    Measured m = run_closed_loop(*d, echo_ops(64), 1 * sim::kMillisecond, 3 * sim::kMillisecond);

    Outcome out;
    out.completed = m.completed;
    std::ostringstream ts;
    sink.write_jsonl(ts);
    out.trace = ts.str();
    std::ostringstream ms;
    reg.write_json(ms);
    // Fold the driver's measurements in with the counters.
    for (const auto& [k, v] : measured_metrics(m)) ms << k << "=" << v << "\n";
    out.metrics = ms.str();
    return out;
}

class PdesStress : public ::testing::TestWithParam<int> {};

TEST_P(PdesStress, TraceAndMetricsIdenticalAcrossThreadCounts) {
    const Scenario sc = make_scenario(GetParam());
    Outcome serial = run_scenario(sc, 1);
    ASSERT_FALSE(serial.trace.empty());
    for (unsigned threads : {2u, 8u}) {
        Outcome parallel = run_scenario(sc, threads);
        EXPECT_EQ(serial.trace, parallel.trace)
            << "proto=" << system_label(sc.proto) << " threads=" << threads;
        EXPECT_EQ(serial.metrics, parallel.metrics)
            << "proto=" << system_label(sc.proto) << " threads=" << threads;
        EXPECT_EQ(serial.completed, parallel.completed);
    }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, PdesStress, ::testing::Range(0, 200));

}  // namespace
}  // namespace neo::bench
