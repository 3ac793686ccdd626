// Structured trace sink for simulation runs.
//
// Records typed events keyed by (virtual time, node, event kind): packet
// send/deliver/drop with a drop reason, sequencer stamps, replica phase
// transitions, timeout arm/fire/cancel, batch seals and modelled crypto
// cost. Event content derives solely from the simulator's virtual clock and
// protocol sequence numbers — never wall time — so two runs with the same
// seed emit byte-identical traces (a cheap, powerful regression check).
//
// Exports:
//  - JSONL: one event object per line, in recording order;
//  - Chrome trace_event JSON: one track (tid) per node, loadable in
//    chrome://tracing or https://ui.perfetto.dev.
//
// Cost discipline: a disabled sink is a null pointer at the owning
// Simulator, so every call site guards with a single branch and builds no
// event arguments when tracing is off.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace neo::obs {

/// Why the simulated network dropped a packet.
enum class DropReason : std::uint8_t {
    kSenderDown = 0,   // crash model: a down node sends nothing
    kPartitioned,      // directional block (partition)
    kLinkLoss,         // random per-link / global loss
    kTampered,         // Byzantine tamper hook returned kDrop
    kReceiverDown,     // destination down at arrival time
    kNoRoute,          // destination id not attached
    kCount_,
};
const char* drop_reason_name(DropReason r);

enum class EventKind : std::uint8_t {
    kPacketSend = 0,
    kPacketDeliver,
    kPacketDrop,
    kSeqStamp,       // sequencer assigned a sequence number
    kPhase,          // protocol phase transition (label names the phase)
    kTimerArm,
    kTimerFire,
    kTimerCancel,
    kBatch,          // batch sealed (label names the batch kind)
    kCrypto,         // modelled crypto cost charged to a task
    kCpuSpan,        // ProcessingNode task execution (duration event)
    kSpanBegin,      // request-scoped causal span opened (label names it)
    kSpanEnd,        // request-scoped causal span closed
    kTamper,         // Byzantine tamper hook mutated a packet in flight
    kViolation,      // safety-invariant violation (obs::Auditor)
    kCount_,
};
const char* event_kind_name(EventKind k);

/// Bit for `EventKind` in a TraceSink kind mask.
constexpr std::uint32_t kind_bit(EventKind k) {
    return 1u << static_cast<unsigned>(k);
}
/// Mask recording only request-scoped spans — what the critical-path
/// analyzer needs when a run is not otherwise traced.
constexpr std::uint32_t kSpanKindMask =
    kind_bit(EventKind::kSpanBegin) | kind_bit(EventKind::kSpanEnd);
/// Default mask: record everything.
constexpr std::uint32_t kAllKindsMask = ~0u;

/// Request-scoped trace id: FNV-1a over the serialized signed request
/// bytes. Every protocol layer that holds those bytes (client submit, aom
/// sequencer ingress, receiver delivery, replica execution) derives the
/// same id without any wire-format change; the id is never zero so 0 can
/// mean "no trace id". Pure function of simulation data — PDES-safe.
constexpr std::uint64_t trace_id(BytesView bytes) {
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t byte : bytes) {
        h ^= byte;
        h *= 1099511628211ull;
    }
    return h == 0 ? 1 : h;
}

/// One recorded event. `label` must point to a string with static storage
/// duration (phase names, timer purposes) — the sink stores the pointer.
/// The meaning of a/b/c depends on the kind; see the recording helpers.
struct TraceEvent {
    sim::Time t = 0;
    sim::Time dur = 0;  // kCpuSpan only
    NodeId node = 0;    // track the event is drawn on
    EventKind kind = EventKind::kPhase;
    const char* label = "";
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
};

/// Streaming reader of a sink's span events (kSpanBegin/kSpanEnd), e.g.
/// obs::CriticalPathAccumulator. Called on the thread that records into
/// the sink, in the sink's recording order.
class SpanConsumer {
  public:
    virtual ~SpanConsumer() = default;
    virtual void on_span(const TraceEvent& e) = 0;
};

class TraceSink {
  public:
    // ---- recording (call sites guard on a null sink; these never check) ----

    /// a=to, b=bytes. Recorded on the sender's track at departure time.
    void packet_send(sim::Time t, NodeId from, NodeId to, std::size_t bytes) {
        push({t, 0, from, EventKind::kPacketSend, "", to, bytes, 0});
    }
    /// a=from, b=bytes. Recorded on the receiver's track at arrival time.
    void packet_deliver(sim::Time t, NodeId from, NodeId to, std::size_t bytes) {
        push({t, 0, to, EventKind::kPacketDeliver, "", from, bytes, 0});
    }
    /// a=to, b=bytes. Recorded on the sender's track; label = reason.
    void packet_drop(sim::Time t, NodeId from, NodeId to, std::size_t bytes, DropReason reason) {
        push({t, 0, from, EventKind::kPacketDrop, drop_reason_name(reason), to, bytes,
              static_cast<std::uint64_t>(reason)});
    }
    /// a=seq, b=signed(0/1), c=group.
    void seq_stamp(sim::Time t, NodeId sequencer, std::uint64_t group, std::uint64_t seq,
                   bool with_signature) {
        push({t, 0, sequencer, EventKind::kSeqStamp, "", seq, with_signature ? 1u : 0u, group});
    }
    /// Protocol phase transition; a/b are phase-specific (slot, view, ...).
    void phase(sim::Time t, NodeId node, const char* name, std::uint64_t a = 0,
               std::uint64_t b = 0) {
        push({t, 0, node, EventKind::kPhase, name, a, b, 0});
    }
    /// a=timer id, b=delay ns; label = what the timer protects.
    void timer_arm(sim::Time t, NodeId node, std::uint64_t id, const char* what, sim::Time delay) {
        push({t, 0, node, EventKind::kTimerArm, what, id, static_cast<std::uint64_t>(delay), 0});
    }
    void timer_fire(sim::Time t, NodeId node, std::uint64_t id, const char* what) {
        push({t, 0, node, EventKind::kTimerFire, what, id, 0, 0});
    }
    void timer_cancel(sim::Time t, NodeId node, std::uint64_t id) {
        push({t, 0, node, EventKind::kTimerCancel, "", id, 0, 0});
    }
    /// a=batch size.
    void batch(sim::Time t, NodeId node, const char* what, std::size_t size) {
        push({t, 0, node, EventKind::kBatch, what, size, 0, 0});
    }
    /// a=modelled cost ns; label = "sync" (serialises the node) or "async"
    /// (overlapped on worker cores).
    void crypto_cost(sim::Time t, NodeId node, const char* mode, sim::Time cost_ns) {
        push({t, 0, node, EventKind::kCrypto, mode, static_cast<std::uint64_t>(cost_ns), 0, 0});
    }
    /// Duration event: the node's CPU was busy [t, t+dur) running `what`.
    void cpu_span(sim::Time t, NodeId node, const char* what, sim::Time dur) {
        push({t, dur, node, EventKind::kCpuSpan, what, 0, 0, 0});
    }
    /// Request-scoped span open on `node`'s track; a=tid, b=peer node (or
    /// phase-specific detail), label names the span ("request", "sequence",
    /// "deliver", "execute", ...). Begin/end pair on the SAME node so
    /// begin/end streams stay balanced per track.
    void span_begin(sim::Time t, NodeId node, const char* name, std::uint64_t tid,
                    std::uint64_t peer = 0) {
        push({t, 0, node, EventKind::kSpanBegin, name, tid, peer, 0});
    }
    /// Span close; tid must match the open. b=peer carries the completing
    /// peer where meaningful (e.g. the quorum-completing replica on the
    /// client's "request" span).
    void span_end(sim::Time t, NodeId node, const char* name, std::uint64_t tid,
                  std::uint64_t peer = 0) {
        push({t, 0, node, EventKind::kSpanEnd, name, tid, peer, 0});
    }
    /// Byzantine tamper hook rewrote a packet in flight (it still travels,
    /// unlike the kTampered drop). a=to, b=bytes after mutation. Recorded on
    /// the sender's track at send time, mirroring packet_send.
    void tamper_mutate(sim::Time t, NodeId from, NodeId to, std::size_t bytes) {
        push({t, 0, from, EventKind::kTamper, "mutate", to, bytes, 0});
    }
    /// Safety-invariant violation (obs::Auditor); label names the invariant,
    /// a/b are invariant-specific (slot, conflicting node, ...).
    void violation(sim::Time t, NodeId node, const char* invariant, std::uint64_t a,
                   std::uint64_t b) {
        push({t, 0, node, EventKind::kViolation, invariant, a, b, 0});
    }

    // ---- configuration ----

    /// Human-readable track name for a node ("replica 1", "sequencer 910");
    /// exported as Chrome thread_name metadata.
    void set_node_name(NodeId node, std::string name) { node_names_[node] = std::move(name); }

    /// Restricts recording to the masked kinds (bit i = EventKind i; see
    /// kind_bit / kSpanKindMask). Filtering happens at push time, so a
    /// spans-only sink costs one branch per suppressed event. Partition-local
    /// buffers inherit the master sink's mask (sim::Simulator), keeping
    /// serial and PDES recordings identical.
    void set_kind_mask(std::uint32_t mask) { mask_ = mask; }
    std::uint32_t kind_mask() const { return mask_; }

    /// Feeds every span event that passes the kind mask to `c` (nullptr
    /// detaches) as it is recorded, or as the PDES window merge appends it
    /// — so the consumer sees the same event-key order at any thread
    /// count. Set it on the master sink only: partition-local buffers
    /// never carry one.
    void set_span_consumer(SpanConsumer* c) { consumer_ = c; }
    SpanConsumer* span_consumer() const { return consumer_; }

    /// With store off, recorded events reach the span consumer but are not
    /// kept: a spans-only, no-store sink analyses a run in O(in-flight)
    /// memory instead of buffering every event.
    void set_store(bool store) { store_ = store; }

    // ---- access / export ----

    const std::vector<TraceEvent>& events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    void clear() { events_.clear(); }

    /// Appends an already-built record — the parallel simulator's
    /// window-boundary merge copying per-partition buffers into the master
    /// sink in event-key order.
    void append(const TraceEvent& e) {
        if (consumer_ != nullptr && is_span(e.kind)) consumer_->on_span(e);
        if (store_) events_.push_back(e);
    }

    /// One JSON object per line, recording order.
    void write_jsonl(std::ostream& os) const;
    /// Chrome trace_event JSON (object format). Events are stably sorted by
    /// timestamp; metadata rows name one track per node.
    void write_chrome_trace(std::ostream& os) const;

    bool write_jsonl_file(const std::string& path) const;
    bool write_chrome_trace_file(const std::string& path) const;

  private:
    static bool is_span(EventKind k) {
        return k == EventKind::kSpanBegin || k == EventKind::kSpanEnd;
    }
    void push(const TraceEvent& e) {
        if (!(mask_ & kind_bit(e.kind))) return;
        append(e);
    }

    std::vector<TraceEvent> events_;
    std::map<NodeId, std::string> node_names_;
    std::uint32_t mask_ = kAllKindsMask;
    SpanConsumer* consumer_ = nullptr;
    bool store_ = true;
};

}  // namespace neo::obs
