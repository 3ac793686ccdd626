// Trace-merge ordering: span events recorded inside parallel PDES windows
// must merge into ONE byte-identical JSONL stream whatever the partition
// count. Each protocol runs the same seed under --sim-threads 1, 2 and 8
// with a spans-only sink attached; the serialized streams — and the
// derived phase_* critical-path metrics — are compared byte for byte.
// Untraced runs (no master sink: run_closed_loop streams spans through a
// no-store sink of its own) must derive the very same phase_* metrics.
// Runs under TSan in CI (LABEL tsan): the partition-local span buffers and
// their window-boundary merge are exactly the code a data race would hit.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "harness/harness.hpp"
#include "obs/trace.hpp"

namespace neo::bench {
namespace {

struct Stream {
    std::string jsonl;                    // spans-only TraceSink serialization
    std::map<std::string, double> phase;  // phase_* metrics derived from it
    std::uint64_t completed = 0;
};

std::unique_ptr<Deployment> build(const std::string& proto, unsigned sim_threads) {
    CommonParams base;
    base.n_replicas = 4;
    base.n_clients = 6;
    base.seed = 97;
    base.sim_threads = sim_threads;
    return make_system(system_from_label(proto), base);
}

Stream run(const std::string& proto, unsigned sim_threads) {
    std::unique_ptr<Deployment> d = build(proto, sim_threads);
    obs::TraceSink sink;
    sink.set_kind_mask(obs::kSpanKindMask);
    d->simulator().set_trace(&sink);
    Measured m = run_closed_loop(*d, echo_ops(64), sim::kMillisecond,
                                 3 * sim::kMillisecond);
    d->simulator().set_trace(nullptr);

    Stream s;
    std::ostringstream os;
    sink.write_jsonl(os);
    s.jsonl = os.str();
    s.phase = m.phase;
    s.completed = m.completed;
    return s;
}

class SpanDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(SpanDeterminism, JsonlByteIdenticalAcrossSimThreads) {
    const std::string proto = GetParam();
    Stream serial = run(proto, 1);
    ASSERT_GT(serial.completed, 0u);
    ASSERT_FALSE(serial.jsonl.empty());
    ASSERT_FALSE(serial.phase.empty()) << "no request span completed in the window";
    for (unsigned threads : {2u, 8u}) {
        Stream parallel = run(proto, threads);
        EXPECT_EQ(serial.completed, parallel.completed) << "threads=" << threads;
        EXPECT_EQ(serial.jsonl, parallel.jsonl) << "threads=" << threads;
        EXPECT_EQ(serial.phase, parallel.phase) << "threads=" << threads;
    }
}

TEST_P(SpanDeterminism, UntracedPhaseMatchesTracedAcrossSimThreads) {
    const std::string proto = GetParam();
    const Stream traced = run(proto, 1);
    ASSERT_FALSE(traced.phase.empty()) << "no request span completed in the window";
    for (unsigned threads : {1u, 2u, 8u}) {
        std::unique_ptr<Deployment> d = build(proto, threads);
        ASSERT_EQ(d->simulator().trace(), nullptr);
        Measured m = run_closed_loop(*d, echo_ops(64), sim::kMillisecond,
                                     3 * sim::kMillisecond);
        EXPECT_EQ(m.span_events_stored, 0u) << "threads=" << threads;
        EXPECT_EQ(traced.completed, m.completed) << "threads=" << threads;
        EXPECT_EQ(traced.phase, m.phase) << "threads=" << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(Protocols, SpanDeterminism,
                         ::testing::Values("neo_hm", "neo_pk", "pbft", "hotstuff"));

}  // namespace
}  // namespace neo::bench
