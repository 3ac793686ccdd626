// Commit critical-path analysis over request-scoped spans.
//
// Every committed request leaves a small span set in the trace, all keyed
// by one trace id (obs::trace_id over the serialized signed request):
//
//   client   "request"   submit -> quorum completion (peer on the end
//                        event = the replica whose reply completed the
//                        2f+1 quorum)
//   client   "quorum"    first matching reply -> quorum completion
//   leader   "batch"     request queued in the leader's adaptive batcher
//                        -> batch sealed (baselines only)
//   switch   "sequence"  sequencer ingress -> stamped emission
//   replica  "deliver"   first aom packet for the seq -> app delivery
//   replica  "execute"   delivery handler -> app execution done
//
// The analyzer cuts each request's end-to-end interval at the boundaries
// observed on the quorum-completing replica, so the per-phase durations
// telescope: their sum equals the end-to-end commit latency *exactly*.
// Missing spans (baselines have no sequence/deliver) merge into the next
// observed phase; out-of-order cuts (a first reply arriving before the
// completing replica finished) are skipped the same way.
//
// The analysis streams: CriticalPathAccumulator consumes span events in
// recording (event-key) order, keeps state only for requests in flight and
// folds each request into a compact row when its "request" span ends.
// Every span a cut reads precedes that end — the completing replica sends
// its reply only after its execute span ends — so events for a request
// arriving after its completion are ignored. Fed live from a TraceSink
// (run_closed_loop, analyze_trace) or from a parsed export
// (bench/trace_report).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace neo::obs {

/// Format-independent span event (one kSpanBegin/kSpanEnd record).
struct SpanRecord {
    sim::Time t = 0;
    NodeId node = 0;
    bool begin = false;
    std::string name;
    std::uint64_t tid = 0;
    std::uint64_t peer = 0;
};

/// Per-phase attribution across all committed requests.
struct PhaseStat {
    std::string phase;
    std::size_t count = 0;      // requests where the phase was observed
    double mean_us = 0;
    double p50_us = 0;
    double p99_us = 0;
    double max_us = 0;
    double share_pct = 0;       // of summed end-to-end time
    std::size_t dominant = 0;   // requests where this phase was the longest
};

struct CriticalPathReport {
    std::size_t requests = 0;   // committed requests analyzed
    double e2e_mean_us = 0;
    double e2e_p50_us = 0;
    double e2e_p99_us = 0;
    /// Pipeline order (client_submit, sequence, ..., reply_quorum); only
    /// phases observed at least once appear.
    std::vector<PhaseStat> phases;
    /// Sum over requests of (sum of phases - end_to_end); exactly 0 by
    /// construction, kept as a self-check the report prints.
    double residual_us = 0;
};

/// Canonical phase order.
extern const char* const kPhaseOrder[];
constexpr std::size_t kPhaseOrderCount = 9;

/// Streaming critical-path analyzer. Memory is O(requests in flight) live
/// state plus one fixed-size row per committed request.
class CriticalPathAccumulator final : public SpanConsumer {
  public:
    /// Requests whose "request" span begins before `window_start` are not
    /// attributed, and span events before it are dropped (run_closed_loop's
    /// measurement-window rule).
    explicit CriticalPathAccumulator(
        sim::Time window_start = std::numeric_limits<sim::Time>::min());
    // A sink holds the accumulator's address while it is attached.
    CriticalPathAccumulator(const CriticalPathAccumulator&) = delete;
    CriticalPathAccumulator& operator=(const CriticalPathAccumulator&) = delete;

    /// Span event recorded by a TraceSink; the label is classified by its
    /// pointer (labels have static storage), so no string compare per event.
    void on_span(const TraceEvent& e) override;
    /// Span event by name, for offline parsers.
    void add(sim::Time t, NodeId node, bool begin, std::string_view name, std::uint64_t tid,
             std::uint64_t peer);

    /// Rows are sorted by trace id and fed to the histograms in that order,
    /// so the floating-point sums do not depend on completion order. A trace
    /// id that completes twice counts once, with its first completion.
    CriticalPathReport report();

    std::size_t committed() const { return rows_.size(); }
    std::size_t live() const { return live_.size(); }
    /// Most requests in flight at once — the analyzer's memory high-water.
    std::size_t live_high_water() const { return live_peak_; }

  private:
    enum class Span : std::uint8_t {
        kRequest, kQuorum, kBatch, kSequence, kDeliver, kExecute, kOther
    };
    static Span classify(std::string_view name);
    Span classify_label(const char* label);
    void feed(sim::Time t, NodeId node, bool begin, Span s, std::uint64_t tid,
              std::uint64_t peer);

    /// Deliver/execute span bounds on one replica.
    struct NodeTimes {
        NodeId node = 0;
        sim::Time deliver_b, deliver_e, exec_b, exec_e;
    };
    /// State of one request in flight. Most requests touch few replicas, so
    /// per-node times live inline and spill to `more` only past kInline.
    struct Live {
        static constexpr std::size_t kInline = 4;
        sim::Time req_b, quorum_b, batch_b, batch_e, seq_b, seq_e;
        std::size_t n_nodes = 0;
        std::array<NodeTimes, kInline> nodes;
        std::vector<NodeTimes> more;

        void reset(sim::Time begin);
        /// Times on `node`, created unset on first use.
        NodeTimes& at(NodeId node);
        const NodeTimes* find(NodeId node) const;

      private:
        NodeTimes& node_at(std::size_t i) { return i < kInline ? nodes[i] : more[i - kInline]; }
        const NodeTimes& node_at(std::size_t i) const {
            return i < kInline ? nodes[i] : more[i - kInline];
        }
        std::size_t index_of(NodeId node) const;  // n_nodes when absent
    };
    /// A committed request: duration of each phase in kPhaseOrder, a bit
    /// per phase that was observed, and the index of the longest one.
    struct Row {
        std::uint64_t tid;
        std::array<sim::Time, kPhaseOrderCount> dur;
        std::uint16_t observed;
        std::uint8_t dominant;
    };
    Row complete(std::uint64_t tid, const Live& r, sim::Time end, NodeId completing) const;

    /// Open-addressing (linear probing) map from trace id to a slot in
    /// `pool_`; erasure back-shifts, so there are no tombstones.
    class LiveMap {
      public:
        std::size_t size() const { return size_; }
        /// Slot index for `tid`, or kNone.
        std::uint32_t find(std::uint64_t tid) const;
        void insert(std::uint64_t tid, std::uint32_t slot);
        void erase(std::uint64_t tid);
        static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

      private:
        struct Entry {
            std::uint64_t tid = 0;
            std::uint32_t slot = kNone;
        };
        std::size_t home(std::uint64_t tid) const;
        void grow();
        std::vector<Entry> table_;
        std::size_t size_ = 0;
    };

    sim::Time window_start_;
    LiveMap live_;
    std::vector<Live> pool_;            // slots referenced by live_
    std::vector<std::uint32_t> free_;   // recycled pool_ slots
    std::size_t live_peak_ = 0;
    std::vector<Row> rows_;

    /// Label pointer -> span kind, filled on first sight of each pointer;
    /// past 32 distinct pointers, labels are classified by string compare.
    struct LabelCache {
        const char* label;
        Span span;
    };
    std::array<LabelCache, 32> labels_{};
    std::size_t n_labels_ = 0;
};

/// Analyzes a recorded span list (thin feeder of CriticalPathAccumulator).
CriticalPathReport analyze_spans(const std::vector<SpanRecord>& spans);

/// Analyzes the span events a sink stored.
CriticalPathReport analyze_trace(const TraceSink& sink);

/// The p50/p99 phase-attribution table + dominant-phase (critical path)
/// distribution, as printed by fig7 --phases and bench/trace_report.
std::string format_report(const CriticalPathReport& r);

}  // namespace neo::obs
