#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>

#include "common/histogram.hpp"

namespace neo::obs {

const char* const kPhaseOrder[kPhaseOrderCount] = {
    "client_submit",  // client invoke -> sequencer ingress (NeoBFT) or
                      // arrival in the leader's batcher (baselines)
    "batch",          // wait in the leader's adaptive batcher until seal
                      // (baselines only; NeoBFT has no leader batching)
    "sequence",       // sequencer ingress -> stamped emission
    "net_fanout",     // emission -> first aom packet at the completing replica
    "aom_deliver",    // aom authentication/confirm -> delivery to the replica
    "ordering",       // delivery -> execution start (baselines: the whole
                      // ordering protocol, since they have no aom spans)
    "execute",        // app execution on the completing replica
    "reply_net",      // execution done -> first matching reply at the client
    "reply_quorum",   // first matching reply -> 2f+1 quorum completion
};

namespace {

constexpr sim::Time kUnset = -1;
constexpr std::size_t kLastPhase = kPhaseOrderCount - 1;  // reply_quorum

void set_once(sim::Time& slot, sim::Time t) {
    if (slot == kUnset) slot = t;
}

// splitmix64 finalizer: trace ids are already hashes, but test streams and
// hand-written traces use small integers.
std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace

// ------------------------------------------------------------ live state

void CriticalPathAccumulator::Live::reset(sim::Time begin) {
    req_b = begin;
    quorum_b = batch_b = batch_e = seq_b = seq_e = kUnset;
    n_nodes = 0;
    more.clear();
}

std::size_t CriticalPathAccumulator::Live::index_of(NodeId node) const {
    for (std::size_t i = 0; i < n_nodes; ++i) {
        if (node_at(i).node == node) return i;
    }
    return n_nodes;
}

CriticalPathAccumulator::NodeTimes& CriticalPathAccumulator::Live::at(NodeId node) {
    const std::size_t i = index_of(node);
    if (i == n_nodes) {
        NodeTimes& fresh = n_nodes < kInline ? nodes[n_nodes] : more.emplace_back();
        fresh = {node, kUnset, kUnset, kUnset, kUnset};
        ++n_nodes;
    }
    return node_at(i);
}

const CriticalPathAccumulator::NodeTimes* CriticalPathAccumulator::Live::find(NodeId node) const {
    const std::size_t i = index_of(node);
    return i == n_nodes ? nullptr : &node_at(i);
}

std::size_t CriticalPathAccumulator::LiveMap::home(std::uint64_t tid) const {
    return static_cast<std::size_t>(mix(tid)) & (table_.size() - 1);
}

std::uint32_t CriticalPathAccumulator::LiveMap::find(std::uint64_t tid) const {
    if (table_.empty()) return kNone;
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = home(tid);; i = (i + 1) & mask) {
        const Entry& e = table_[i];
        if (e.slot == kNone || e.tid == tid) return e.slot;
    }
}

void CriticalPathAccumulator::LiveMap::insert(std::uint64_t tid, std::uint32_t slot) {
    if (2 * (size_ + 1) > table_.size()) grow();
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(tid);
    while (table_[i].slot != kNone) i = (i + 1) & mask;
    table_[i] = {tid, slot};
    ++size_;
}

void CriticalPathAccumulator::LiveMap::erase(std::uint64_t tid) {
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = home(tid);
    while (table_[hole].tid != tid || table_[hole].slot == kNone) hole = (hole + 1) & mask;
    // Back-shift: pull later entries of the probe run into the hole unless
    // their home lies cyclically in (hole, j], where they already sit.
    for (std::size_t j = (hole + 1) & mask; table_[j].slot != kNone; j = (j + 1) & mask) {
        const std::size_t k = home(table_[j].tid);
        const bool stays = hole <= j ? (hole < k && k <= j) : (hole < k || k <= j);
        if (!stays) {
            table_[hole] = table_[j];
            hole = j;
        }
    }
    table_[hole] = Entry{};
    --size_;
}

void CriticalPathAccumulator::LiveMap::grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.empty() ? 64 : 2 * old.size(), Entry{});
    size_ = 0;
    for (const Entry& e : old) {
        if (e.slot != kNone) insert(e.tid, e.slot);
    }
}

// ------------------------------------------------------------ accumulator

CriticalPathAccumulator::CriticalPathAccumulator(sim::Time window_start)
    : window_start_(window_start) {}

CriticalPathAccumulator::Span CriticalPathAccumulator::classify(std::string_view name) {
    if (name == "request") return Span::kRequest;
    if (name == "quorum") return Span::kQuorum;
    if (name == "batch") return Span::kBatch;
    if (name == "sequence") return Span::kSequence;
    if (name == "deliver") return Span::kDeliver;
    if (name == "execute") return Span::kExecute;
    return Span::kOther;
}

CriticalPathAccumulator::Span CriticalPathAccumulator::classify_label(const char* label) {
    for (std::size_t i = 0; i < n_labels_; ++i) {
        if (labels_[i].label == label) return labels_[i].span;
    }
    const Span s = classify(label);
    if (n_labels_ < labels_.size()) labels_[n_labels_++] = {label, s};
    return s;
}

void CriticalPathAccumulator::on_span(const TraceEvent& e) {
    feed(e.t, e.node, e.kind == EventKind::kSpanBegin, classify_label(e.label), e.a, e.b);
}

void CriticalPathAccumulator::add(sim::Time t, NodeId node, bool begin, std::string_view name,
                                  std::uint64_t tid, std::uint64_t peer) {
    feed(t, node, begin, classify(name), tid, peer);
}

void CriticalPathAccumulator::feed(sim::Time t, NodeId node, bool begin, Span s,
                                   std::uint64_t tid, std::uint64_t peer) {
    if (s == Span::kOther || t < window_start_) return;
    std::uint32_t slot = live_.find(tid);
    if (slot == LiveMap::kNone) {
        // Only a request's begin opens state. Anything else for an unknown
        // trace id belongs to a request that began before the window or has
        // already completed.
        if (s != Span::kRequest || !begin) return;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(pool_.size());
            pool_.emplace_back();
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        pool_[slot].reset(t);
        live_.insert(tid, slot);
        if (live_.size() > live_peak_) live_peak_ = live_.size();
        return;
    }
    Live& r = pool_[slot];
    switch (s) {
        case Span::kRequest:
            if (begin) return;  // a duplicate begin keeps the first
            rows_.push_back(complete(tid, r, t, static_cast<NodeId>(peer)));
            live_.erase(tid);
            free_.push_back(slot);
            return;
        case Span::kQuorum:
            if (begin) set_once(r.quorum_b, t);
            return;
        case Span::kBatch:
            set_once(begin ? r.batch_b : r.batch_e, t);
            return;
        case Span::kSequence:
            set_once(begin ? r.seq_b : r.seq_e, t);
            return;
        case Span::kDeliver: {
            NodeTimes& n = r.at(node);
            set_once(begin ? n.deliver_b : n.deliver_e, t);
            return;
        }
        case Span::kExecute: {
            NodeTimes& n = r.at(node);
            set_once(begin ? n.exec_b : n.exec_e, t);
            return;
        }
        case Span::kOther:
            return;
    }
}

CriticalPathAccumulator::Row CriticalPathAccumulator::complete(std::uint64_t tid, const Live& r,
                                                               sim::Time end,
                                                               NodeId completing) const {
    const NodeTimes* n = r.find(completing);
    const sim::Time cuts[kLastPhase] = {
        // client_submit ends where the pipeline first takes custody of the
        // request: the sequencer ingress (NeoBFT) or the leader's batcher
        // (baselines, which have no sequence spans).
        r.batch_b != kUnset ? r.batch_b : r.seq_b,
        r.batch_e,
        r.seq_e,
        n ? n->deliver_b : kUnset,
        n ? n->deliver_e : kUnset,
        n ? n->exec_b : kUnset,
        n ? n->exec_e : kUnset,
        r.quorum_b,
    };

    // Walk the pipeline; each observed, monotonic cut closes one phase.
    // Skipped cuts fold their interval into the next observed phase, so
    // the phase durations always sum to exactly end - req_b.
    Row row{tid, {}, 0, kLastPhase};
    sim::Time prev = r.req_b;
    sim::Time longest = -1;
    auto close = [&](std::size_t phase, sim::Time t) {
        const sim::Time dur = t - prev;
        prev = t;
        row.dur[phase] = dur;
        row.observed |= static_cast<std::uint16_t>(1u << phase);
        if (dur > longest) {
            longest = dur;
            row.dominant = static_cast<std::uint8_t>(phase);
        }
    };
    for (std::size_t i = 0; i < kLastPhase; ++i) {
        const sim::Time c = cuts[i];
        if (c == kUnset || c < prev || c > end) continue;
        close(i, c);
    }
    close(kLastPhase, end);
    return row;
}

CriticalPathReport CriticalPathAccumulator::report() {
    std::stable_sort(rows_.begin(), rows_.end(),
                     [](const Row& a, const Row& b) { return a.tid < b.tid; });

    CriticalPathReport rep;
    std::array<Histogram, kPhaseOrderCount> phase_hist;
    std::array<std::size_t, kPhaseOrderCount> dominant{};
    Histogram e2e;
    double phase_sum_total = 0;
    double e2e_sum_total = 0;
    for (std::size_t k = 0; k < rows_.size(); ++k) {
        const Row& row = rows_[k];
        if (k > 0 && rows_[k - 1].tid == row.tid) continue;
        ++rep.requests;
        double phase_sum = 0;
        sim::Time e2e_ns = 0;
        for (std::size_t i = 0; i < kPhaseOrderCount; ++i) {
            if (!(row.observed & (1u << i))) continue;
            const double us = static_cast<double>(row.dur[i]) / 1000.0;
            phase_hist[i].add(us);
            phase_sum += us;
            e2e_ns += row.dur[i];
        }
        const double e2e_us = static_cast<double>(e2e_ns) / 1000.0;
        e2e.add(e2e_us);
        ++dominant[row.dominant];
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
        Histogram& h = phase_hist[i];
        if (h.empty()) continue;
        PhaseStat st;
        st.phase = kPhaseOrder[i];
        st.count = h.count();
        st.mean_us = h.mean();
        st.p50_us = h.percentile(50);
        st.p99_us = h.percentile(99);
        st.max_us = h.max();
        st.share_pct =
            e2e_sum_total > 0 ? 100.0 * h.mean() * h.count() / e2e_sum_total : 0;
        st.dominant = dominant[i];
        rep.phases.push_back(std::move(st));
    }
    return rep;
}

// ------------------------------------------------------------ feeders

CriticalPathReport analyze_spans(const std::vector<SpanRecord>& spans) {
    CriticalPathAccumulator acc;
    for (const SpanRecord& s : spans) acc.add(s.t, s.node, s.begin, s.name, s.tid, s.peer);
    return acc.report();
}

CriticalPathReport analyze_trace(const TraceSink& sink) {
    CriticalPathAccumulator acc;
    for (const TraceEvent& e : sink.events()) {
        if (e.kind == EventKind::kSpanBegin || e.kind == EventKind::kSpanEnd) acc.on_span(e);
    }
    return acc.report();
}

std::string format_report(const CriticalPathReport& r) {
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "critical path over %zu committed requests: e2e mean %.3f us, "
                  "p50 %.3f us, p99 %.3f us\n",
                  r.requests, r.e2e_mean_us, r.e2e_p50_us, r.e2e_p99_us);
    out += buf;
    std::snprintf(buf, sizeof(buf), "%-14s %8s %10s %10s %10s %10s %7s %9s\n", "phase", "count",
                  "mean_us", "p50_us", "p99_us", "max_us", "share%", "dominant%");
    out += buf;
    for (const PhaseStat& p : r.phases) {
        double dom_pct = r.requests > 0 ? 100.0 * static_cast<double>(p.dominant) /
                                              static_cast<double>(r.requests)
                                        : 0;
        std::snprintf(buf, sizeof(buf), "%-14s %8zu %10.3f %10.3f %10.3f %10.3f %7.2f %9.2f\n",
                      p.phase.c_str(), p.count, p.mean_us, p.p50_us, p.p99_us, p.max_us,
                      p.share_pct, dom_pct);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), "phase-sum residual vs end-to-end: %.6f us\n", r.residual_us);
    out += buf;
    return out;
}

}  // namespace neo::obs
