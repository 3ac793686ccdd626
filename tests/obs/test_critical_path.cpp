// Streaming commit critical-path analysis (obs::CriticalPathAccumulator).
//
// Synthetic span streams pin each rule of the analyzer: exact telescoping,
// folding of missing or out-of-order cuts, the measurement-window and
// late-event rules, duplicate begins and the sink's span-consumer hook.
// Recorded streams from every protocol (and a sharded deployment) are then
// checked against a reference copy of the original buffer-then-rescan
// analyzer kept in this file, and a long Neo-HM run checks that the
// analyzer's live state stays bounded by the requests in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "harness/harness.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"

namespace neo::obs {
namespace {

// ------------------------------------------------------------ reference
//
// The analyzer as it was before it streamed: buffer every span, build a
// map of per-request maps, then cut each committed request. Kept as an
// oracle for the streaming version.

constexpr sim::Time kUnset = -1;

struct RefPerTid {
    sim::Time req_b = kUnset, req_e = kUnset;
    NodeId completing = 0;
    sim::Time quorum_b = kUnset;
    sim::Time batch_b = kUnset, batch_e = kUnset;
    sim::Time seq_b = kUnset, seq_e = kUnset;
    std::map<NodeId, sim::Time> deliver_b, deliver_e;
    std::map<NodeId, sim::Time> exec_b, exec_e;
};

sim::Time ref_lookup(const std::map<NodeId, sim::Time>& m, NodeId node) {
    auto it = m.find(node);
    return it == m.end() ? kUnset : it->second;
}

void ref_set_once(sim::Time& slot, sim::Time t) {
    if (slot == kUnset) slot = t;
}

CriticalPathReport reference_analyze(const std::vector<SpanRecord>& spans) {
    std::map<std::uint64_t, RefPerTid> reqs;
    for (const SpanRecord& s : spans) {
        RefPerTid& r = reqs[s.tid];
        if (s.name == "request") {
            if (s.begin) {
                ref_set_once(r.req_b, s.t);
            } else if (r.req_e == kUnset) {
                r.req_e = s.t;
                r.completing = static_cast<NodeId>(s.peer);
            }
        } else if (s.name == "quorum") {
            if (s.begin) ref_set_once(r.quorum_b, s.t);
        } else if (s.name == "batch") {
            ref_set_once(s.begin ? r.batch_b : r.batch_e, s.t);
        } else if (s.name == "sequence") {
            ref_set_once(s.begin ? r.seq_b : r.seq_e, s.t);
        } else if (s.name == "deliver") {
            (s.begin ? r.deliver_b : r.deliver_e).try_emplace(s.node, s.t);
        } else if (s.name == "execute") {
            (s.begin ? r.exec_b : r.exec_e).try_emplace(s.node, s.t);
        }
    }

    CriticalPathReport rep;
    std::map<std::string, Histogram> phase_hist;
    std::map<std::string, std::size_t> dominant;
    Histogram e2e;
    double phase_sum_total = 0;
    double e2e_sum_total = 0;
    for (auto& [tid, r] : reqs) {
        if (r.req_b == kUnset || r.req_e == kUnset) continue;
        ++rep.requests;
        struct Cut {
            const char* phase;
            sim::Time t;
        };
        const Cut cuts[] = {
            {"client_submit", r.batch_b != kUnset ? r.batch_b : r.seq_b},
            {"batch", r.batch_e},
            {"sequence", r.seq_e},
            {"net_fanout", ref_lookup(r.deliver_b, r.completing)},
            {"aom_deliver", ref_lookup(r.deliver_e, r.completing)},
            {"ordering", ref_lookup(r.exec_b, r.completing)},
            {"execute", ref_lookup(r.exec_e, r.completing)},
            {"reply_net", r.quorum_b},
        };
        sim::Time prev = r.req_b;
        const char* longest = "reply_quorum";
        sim::Time longest_dur = -1;
        double phase_sum = 0;
        auto close = [&](const char* phase, sim::Time t) {
            sim::Time dur = t - prev;
            prev = t;
            double us = static_cast<double>(dur) / 1000.0;
            phase_hist[phase].add(us);
            phase_sum += us;
            if (dur > longest_dur) {
                longest_dur = dur;
                longest = phase;
            }
        };
        for (const Cut& c : cuts) {
            if (c.t == kUnset || c.t < prev || c.t > r.req_e) continue;
            close(c.phase, c.t);
        }
        close("reply_quorum", r.req_e);
        double e2e_us = static_cast<double>(r.req_e - r.req_b) / 1000.0;
        e2e.add(e2e_us);
        ++dominant[longest];
        phase_sum_total += phase_sum;
        e2e_sum_total += e2e_us;
    }
    if (!e2e.empty()) {
        rep.e2e_mean_us = e2e.mean();
        rep.e2e_p50_us = e2e.percentile(50);
        rep.e2e_p99_us = e2e.percentile(99);
    }
    rep.residual_us = phase_sum_total - e2e_sum_total;
    for (std::size_t i = 0; i < kPhaseOrderCount; ++i) {
        auto it = phase_hist.find(kPhaseOrder[i]);
        if (it == phase_hist.end()) continue;
        Histogram& h = it->second;
        PhaseStat st;
        st.phase = it->first;
        st.count = h.count();
        st.mean_us = h.mean();
        st.p50_us = h.percentile(50);
        st.p99_us = h.percentile(99);
        st.max_us = h.max();
        st.share_pct =
            e2e_sum_total > 0 ? 100.0 * h.mean() * h.count() / e2e_sum_total : 0;
        auto dit = dominant.find(it->first);
        st.dominant = dit == dominant.end() ? 0 : dit->second;
        rep.phases.push_back(std::move(st));
    }
    return rep;
}

/// Field-by-field exact equality (doubles compared with ==, so a 1-ULP
/// drift fails) plus the printed table.
void expect_identical(const CriticalPathReport& a, const CriticalPathReport& b) {
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.e2e_mean_us, b.e2e_mean_us);
    EXPECT_EQ(a.e2e_p50_us, b.e2e_p50_us);
    EXPECT_EQ(a.e2e_p99_us, b.e2e_p99_us);
    EXPECT_EQ(a.residual_us, b.residual_us);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        const PhaseStat& x = a.phases[i];
        const PhaseStat& y = b.phases[i];
        EXPECT_EQ(x.phase, y.phase);
        EXPECT_EQ(x.count, y.count) << x.phase;
        EXPECT_EQ(x.mean_us, y.mean_us) << x.phase;
        EXPECT_EQ(x.p50_us, y.p50_us) << x.phase;
        EXPECT_EQ(x.p99_us, y.p99_us) << x.phase;
        EXPECT_EQ(x.max_us, y.max_us) << x.phase;
        EXPECT_EQ(x.share_pct, y.share_pct) << x.phase;
        EXPECT_EQ(x.dominant, y.dominant) << x.phase;
    }
    EXPECT_EQ(format_report(a), format_report(b));
}

// ------------------------------------------------------------ synthetic

/// Builder for hand-written span streams (times in ns).
struct Stream {
    std::vector<SpanRecord> spans;
    Stream& b(sim::Time t, NodeId node, const char* name, std::uint64_t tid,
              std::uint64_t peer = 0) {
        spans.push_back({t, node, true, name, tid, peer});
        return *this;
    }
    Stream& e(sim::Time t, NodeId node, const char* name, std::uint64_t tid,
              std::uint64_t peer = 0) {
        spans.push_back({t, node, false, name, tid, peer});
        return *this;
    }
    /// One NeoBFT-shaped request: sequencer (node 9), replicas 1..3, client
    /// 100; replica `completing` completes the quorum.
    Stream& neo_request(std::uint64_t tid, sim::Time t0, NodeId completing = 1) {
        b(t0, 100, "request", tid);
        b(t0 + 1'000, 9, "sequence", tid).e(t0 + 3'000, 9, "sequence", tid);
        for (NodeId r = 1; r <= 3; ++r) {
            const sim::Time d = 500 * static_cast<sim::Time>(r);
            b(t0 + 4'000 + d, r, "deliver", tid).e(t0 + 4'200 + d, r, "deliver", tid);
            b(t0 + 4'300 + d, r, "execute", tid).e(t0 + 4'900 + d, r, "execute", tid);
        }
        b(t0 + 7'000, 100, "quorum", tid);
        e(t0 + 8'000, 100, "quorum", tid);
        return e(t0 + 8'000, 100, "request", tid, completing);
    }
};

const PhaseStat* phase(const CriticalPathReport& r, const std::string& name) {
    for (const PhaseStat& p : r.phases) {
        if (p.phase == name) return &p;
    }
    return nullptr;
}

TEST(CriticalPath, PhasesTelescopeWithZeroResidual) {
    Stream s;
    for (std::uint64_t i = 0; i < 20; ++i) {
        s.neo_request(1000 + i, static_cast<sim::Time>(i) * 3'333,
                      1 + static_cast<NodeId>(i % 3));
    }
    const CriticalPathReport r = analyze_spans(s.spans);
    ASSERT_EQ(r.requests, 20u);
    EXPECT_EQ(r.residual_us, 0.0);
    double mean_sum = 0;
    for (const PhaseStat& p : r.phases) {
        EXPECT_EQ(p.count, 20u) << p.phase;
        mean_sum += p.mean_us;
    }
    EXPECT_DOUBLE_EQ(mean_sum, r.e2e_mean_us);
    EXPECT_DOUBLE_EQ(r.e2e_mean_us, 8.0);
    // The cuts come from the completing replica: with replica 1 completing,
    // fan-out ends at its deliver begin (4.5 us after submit).
    const CriticalPathReport one = analyze_spans(Stream().neo_request(7, 0, 1).spans);
    EXPECT_DOUBLE_EQ(phase(one, "net_fanout")->mean_us, 1.5);
    const CriticalPathReport three = analyze_spans(Stream().neo_request(7, 0, 3).spans);
    EXPECT_DOUBLE_EQ(phase(three, "net_fanout")->mean_us, 2.5);
    expect_identical(r, reference_analyze(s.spans));
}

TEST(CriticalPath, MissingSpansFoldIntoTheNextPhase) {
    // Baseline shape: no sequence or deliver spans; the leader batches.
    Stream s;
    s.b(0, 100, "request", 5);
    s.b(10'000, 1, "batch", 5).e(20'000, 1, "batch", 5);
    s.b(50'000, 1, "execute", 5).e(55'000, 1, "execute", 5);
    s.b(70'000, 100, "quorum", 5);
    s.e(80'000, 100, "request", 5, /*peer=*/1);
    const CriticalPathReport r = analyze_spans(s.spans);
    ASSERT_EQ(r.requests, 1u);
    EXPECT_EQ(phase(r, "sequence"), nullptr);
    EXPECT_EQ(phase(r, "net_fanout"), nullptr);
    EXPECT_EQ(phase(r, "aom_deliver"), nullptr);
    EXPECT_DOUBLE_EQ(phase(r, "client_submit")->mean_us, 10.0);
    EXPECT_DOUBLE_EQ(phase(r, "batch")->mean_us, 10.0);
    EXPECT_DOUBLE_EQ(phase(r, "ordering")->mean_us, 30.0);  // batch seal -> execute
    EXPECT_DOUBLE_EQ(phase(r, "execute")->mean_us, 5.0);
    EXPECT_DOUBLE_EQ(phase(r, "reply_net")->mean_us, 15.0);
    EXPECT_DOUBLE_EQ(phase(r, "reply_quorum")->mean_us, 10.0);
    EXPECT_EQ(phase(r, "ordering")->dominant, 1u);
    EXPECT_EQ(r.residual_us, 0.0);
    expect_identical(r, reference_analyze(s.spans));
}

TEST(CriticalPath, OutOfOrderCutIsSkipped) {
    // The first matching reply reaches the client before the completing
    // replica finished executing: the reply_net cut would run backwards, so
    // its interval folds into reply_quorum.
    Stream s;
    s.b(0, 100, "request", 8);
    s.b(1'000, 2, "execute", 8).e(2'000, 2, "execute", 8);
    s.b(1'500, 100, "quorum", 8);
    s.b(3'000, 1, "execute", 8).e(6'000, 1, "execute", 8);
    s.e(9'000, 100, "request", 8, /*peer=*/1);
    const CriticalPathReport r = analyze_spans(s.spans);
    ASSERT_EQ(r.requests, 1u);
    EXPECT_EQ(phase(r, "reply_net"), nullptr);
    EXPECT_DOUBLE_EQ(phase(r, "ordering")->mean_us, 3.0);
    EXPECT_DOUBLE_EQ(phase(r, "execute")->mean_us, 3.0);
    EXPECT_DOUBLE_EQ(phase(r, "reply_quorum")->mean_us, 3.0);
    EXPECT_EQ(r.residual_us, 0.0);
    expect_identical(r, reference_analyze(s.spans));
}

TEST(CriticalPath, RequestBegunBeforeTheWindowIsSkipped) {
    CriticalPathAccumulator acc(/*window_start=*/100'000);
    Stream s;
    s.neo_request(1, 95'000);   // begins before the window, ends inside it
    s.neo_request(2, 100'000);  // begins exactly at the window start
    for (const SpanRecord& x : s.spans) acc.add(x.t, x.node, x.begin, x.name, x.tid, x.peer);
    const CriticalPathReport r = acc.report();
    EXPECT_EQ(r.requests, 1u);
    EXPECT_EQ(acc.live(), 0u);
    // Same answer as dropping every span before the window up front.
    std::vector<SpanRecord> windowed;
    for (const SpanRecord& x : s.spans) {
        if (x.t >= 100'000) windowed.push_back(x);
    }
    expect_identical(r, reference_analyze(windowed));
}

TEST(CriticalPath, UncommittedRequestIsSkipped) {
    CriticalPathAccumulator acc;
    Stream s;
    s.neo_request(1, 0);
    s.b(500, 101, "request", 2).b(1'500, 9, "sequence", 2).e(3'500, 9, "sequence", 2);
    s.e(4'000, 1, "execute", 77);  // no live request: ignored
    for (const SpanRecord& x : s.spans) acc.add(x.t, x.node, x.begin, x.name, x.tid, x.peer);
    EXPECT_EQ(acc.live(), 1u);
    EXPECT_EQ(acc.committed(), 1u);
    const CriticalPathReport r = acc.report();
    EXPECT_EQ(r.requests, 1u);
    expect_identical(r, reference_analyze(s.spans));
}

TEST(CriticalPath, SpansAfterCompletionAreIgnored) {
    Stream s;
    s.neo_request(3, 0, 1);
    const CriticalPathReport before = analyze_spans(s.spans);
    // A straggler replica's spans, a second reply and a repeated end, all
    // recorded after the request completed: none may move the cuts.
    s.b(8'000, 4, "deliver", 3).e(8'000, 4, "deliver", 3);
    s.b(8'000, 1, "execute", 3).e(8'000, 1, "execute", 3);
    s.b(8'000, 100, "quorum", 3);
    s.e(9'000, 100, "request", 3, 2);
    CriticalPathAccumulator acc;
    for (const SpanRecord& x : s.spans) acc.add(x.t, x.node, x.begin, x.name, x.tid, x.peer);
    EXPECT_EQ(acc.live(), 0u);
    expect_identical(acc.report(), before);
}

TEST(CriticalPath, DuplicateBeginKeepsTheFirst) {
    Stream s;
    s.b(0, 100, "request", 4).b(2'000, 100, "request", 4);
    s.b(3'000, 9, "sequence", 4).e(4'000, 9, "sequence", 4);
    s.e(10'000, 100, "request", 4, 1);
    const CriticalPathReport r = analyze_spans(s.spans);
    ASSERT_EQ(r.requests, 1u);
    EXPECT_DOUBLE_EQ(r.e2e_mean_us, 10.0);
    EXPECT_DOUBLE_EQ(phase(r, "client_submit")->mean_us, 3.0);
    expect_identical(r, reference_analyze(s.spans));
}

TEST(CriticalPath, LabelsClassifyByContentWhateverTheirAddress) {
    // Labels are dispatched by pointer; equal text at a different address
    // (another translation unit's copy of the literal) must still match.
    static const char kRequestCopy[] = "request";
    static const char kSequenceCopy[] = "sequence";
    ASSERT_NE(static_cast<const void*>(kRequestCopy), static_cast<const void*>("request"));
    CriticalPathAccumulator acc;
    auto ev = [](sim::Time t, bool begin, const char* label) {
        TraceEvent e;
        e.t = t;
        e.node = 100;
        e.kind = begin ? EventKind::kSpanBegin : EventKind::kSpanEnd;
        e.label = label;
        e.a = 6;
        return e;
    };
    acc.on_span(ev(0, true, "request"));
    acc.on_span(ev(1'000, true, kSequenceCopy));
    acc.on_span(ev(2'000, false, "sequence"));
    acc.on_span(ev(3'000, false, kRequestCopy));
    const CriticalPathReport r = acc.report();
    ASSERT_EQ(r.requests, 1u);
    EXPECT_DOUBLE_EQ(phase(r, "client_submit")->mean_us, 1.0);
    EXPECT_DOUBLE_EQ(phase(r, "sequence")->mean_us, 1.0);
}

TEST(CriticalPath, InterleavedRequestsMatchTheReference) {
    // Thousands of overlapping requests with jittered starts and varying
    // completing replicas: exercises probing and back-shift erasure of the
    // open-addressing live map.
    StreamRng rng(11, 0);
    Stream s;
    for (std::uint64_t i = 0; i < 3'000; ++i) {
        const sim::Time t0 =
            static_cast<sim::Time>(i) * 700 + static_cast<sim::Time>(rng.next() % 500);
        s.neo_request((i % 97) * 4096 + i / 97 + 1, t0,
                      1 + static_cast<NodeId>(rng.next() % 3));
    }
    std::stable_sort(s.spans.begin(), s.spans.end(),
                     [](const SpanRecord& a, const SpanRecord& b) { return a.t < b.t; });
    CriticalPathAccumulator acc;
    for (const SpanRecord& x : s.spans) acc.add(x.t, x.node, x.begin, x.name, x.tid, x.peer);
    EXPECT_EQ(acc.live(), 0u);
    EXPECT_GT(acc.live_high_water(), 8u);
    EXPECT_LT(acc.live_high_water(), 20u);
    const CriticalPathReport r = acc.report();
    EXPECT_EQ(r.requests, 3'000u);
    expect_identical(r, reference_analyze(s.spans));
}

TEST(CriticalPath, SinkFeedsItsConsumerWithoutStoring) {
    TraceSink sink;
    sink.set_kind_mask(kSpanKindMask);
    sink.set_store(false);
    CriticalPathAccumulator acc;
    sink.set_span_consumer(&acc);
    sink.packet_send(0, 1, 2, 64);  // masked out
    sink.span_begin(0, 100, "request", 9);
    sink.span_begin(1'000, 9, "sequence", 9);
    // The PDES window merge appends already-filtered records.
    sink.append({2'000, 0, 9, EventKind::kSpanEnd, "sequence", 9, 0, 0});
    sink.span_end(5'000, 100, "request", 9, 1);
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(acc.committed(), 1u);
    EXPECT_DOUBLE_EQ(acc.report().e2e_mean_us, 5.0);

    // A storing sink keeps its events and still feeds the consumer.
    TraceSink stored;
    CriticalPathAccumulator acc2;
    stored.set_span_consumer(&acc2);
    stored.span_begin(0, 100, "request", 9);
    stored.phase(1, 1, "prepare");
    stored.span_end(5'000, 100, "request", 9, 1);
    EXPECT_EQ(stored.size(), 3u);
    expect_identical(acc2.report(), analyze_trace(stored));
}

// ------------------------------------------------------------ recorded

constexpr sim::Time kWarmup = sim::kMillisecond;

std::vector<SpanRecord> windowed_spans(const TraceSink& sink, sim::Time from) {
    std::vector<SpanRecord> out;
    for (const TraceEvent& e : sink.events()) {
        if (e.kind != EventKind::kSpanBegin && e.kind != EventKind::kSpanEnd) continue;
        if (e.t < from) continue;
        out.push_back({e.t, e.node, e.kind == EventKind::kSpanBegin, e.label, e.a, e.b});
    }
    return out;
}

/// The phase_* metric names run_closed_loop derives from a report.
std::map<std::string, double> phase_metrics(const CriticalPathReport& rep) {
    std::map<std::string, double> m;
    m["phase_requests"] = static_cast<double>(rep.requests);
    m["phase_e2e_mean_us"] = rep.e2e_mean_us;
    m["phase_e2e_p50_us"] = rep.e2e_p50_us;
    m["phase_e2e_p99_us"] = rep.e2e_p99_us;
    m["phase_residual_us"] = rep.residual_us;
    for (const PhaseStat& ph : rep.phases) {
        m["phase_" + ph.phase + "_mean_us"] = ph.mean_us;
        m["phase_" + ph.phase + "_p50_us"] = ph.p50_us;
        m["phase_" + ph.phase + "_p99_us"] = ph.p99_us;
        m["phase_" + ph.phase + "_share_pct"] = ph.share_pct;
    }
    return m;
}

std::unique_ptr<bench::Deployment> build(const std::string& proto) {
    bench::CommonParams base;
    base.n_replicas = 4;
    base.n_clients = 6;
    base.seed = 31;
    if (proto != "sharded") return bench::make_system(bench::system_from_label(proto), base);
    bench::ShardParams p;
    static_cast<bench::CommonParams&>(p) = base;
    p.n_shards = 2;
    p.dataset.record_count = 1'000;
    return bench::make_sharded_neobft(p);
}

class RecordedStream : public ::testing::TestWithParam<const char*> {};

TEST_P(RecordedStream, MatchesTheReferenceAnalyzer) {
    const std::string proto = GetParam();
    std::unique_ptr<bench::Deployment> d = build(proto);
    bench::OpGen ops = bench::echo_ops(64);
    if (proto == "sharded") {
        bench::ShardTxnWorkload w;
        w.n_shards = 2;
        w.cross_shard_ratio = 0.2;
        w.ops_per_txn = 3;
        w.seed = 31;
        w.dataset.record_count = 1'000;
        ops = bench::sharded_txn_ops(w, d->n_clients());
    }
    TraceSink sink;
    sink.set_kind_mask(kSpanKindMask);
    d->simulator().set_trace(&sink);
    const bench::Measured m =
        bench::run_closed_loop(*d, ops, kWarmup, 3 * sim::kMillisecond);
    d->simulator().set_trace(nullptr);

    // Offline: the whole recording through the thin feeders.
    const CriticalPathReport whole = reference_analyze(windowed_spans(sink, 0));
    ASSERT_GT(whole.requests, 0u);
    expect_identical(analyze_trace(sink), whole);

    // In-process: run_closed_loop streamed the measurement window live.
    const CriticalPathReport window = reference_analyze(windowed_spans(sink, kWarmup));
    ASSERT_GT(window.requests, 0u);
    // Exact in integer ns; the double sums may differ in the last bits.
    EXPECT_NEAR(window.residual_us, 0.0, 1e-6);
    EXPECT_EQ(m.phase, phase_metrics(window));
}

INSTANTIATE_TEST_SUITE_P(Protocols, RecordedStream,
                         ::testing::Values("neo_hm", "neo_pk", "pbft", "zyzzyva", "hotstuff",
                                           "minbft", "sharded"));

// ------------------------------------------------------------ memory bound

bench::Measured untraced_neo_hm(sim::Time measure) {
    std::unique_ptr<bench::Deployment> d = build("neo_hm");
    EXPECT_EQ(d->simulator().trace(), nullptr);
    return bench::run_closed_loop(*d, bench::echo_ops(64), kWarmup, measure);
}

TEST(CriticalPathMemory, LiveStateIsBoundedByRequestsInFlight) {
    const bench::Measured short_run = untraced_neo_hm(3 * sim::kMillisecond);
    const bench::Measured long_run = untraced_neo_hm(30 * sim::kMillisecond);
    ASSERT_GT(long_run.completed, 5 * short_run.completed);
    // A closed loop keeps one request per client in flight, so the live
    // high-water mark is set by the client count, not the window length.
    const std::size_t n_clients = 6;
    EXPECT_GT(short_run.phase_live_peak, 0u);
    EXPECT_LE(short_run.phase_live_peak, 2 * n_clients);
    EXPECT_LE(long_run.phase_live_peak, 2 * n_clients);
    EXPECT_LE(long_run.phase_live_peak, 2 * short_run.phase_live_peak);
    // The run's own spans-only sink streams; it stores nothing.
    EXPECT_EQ(short_run.span_events_stored, 0u);
    EXPECT_EQ(long_run.span_events_stored, 0u);
    EXPECT_NEAR(long_run.phase.at("phase_residual_us"), 0.0, 1e-6);
}

}  // namespace
}  // namespace neo::obs
