#include "sim/network.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace neo::sim {

void Network::add_node(Node& node, NodeId id) {
    NEO_ASSERT_MSG(!nodes_.contains(id), "duplicate node id");
    NEO_ASSERT_MSG(node.net_ == nullptr, "node already attached");
    node.net_ = this;
    node.id_ = id;
    nodes_[id] = &node;
    // Memoize the node's partition under the current placement policy
    // (setup-time only; the table is immutable once workers run).
    sim_.bind_node(id);
    // Pre-build the sender stream so the tables are never mutated from a
    // worker thread once the simulation runs. A stream an unattached id
    // already drew from (lazy insert) keeps its position.
    if (id >= kDenseStreams) {
        sparse_streams_.emplace(id, StreamRng(seed_, id));
        return;
    }
    while (streams_.size() <= id) {
        const auto next = static_cast<NodeId>(streams_.size());
        auto it = sparse_streams_.find(next);
        if (it == sparse_streams_.end()) {
            streams_.emplace_back(seed_, next);
        } else {
            streams_.push_back(it->second);
            sparse_streams_.erase(it);
        }
    }
}

StreamRng& Network::sparse_stream(NodeId from) {
    auto it = sparse_streams_.find(from);
    if (it == sparse_streams_.end()) it = sparse_streams_.emplace(from, StreamRng(seed_, from)).first;
    return it->second;
}

void Network::refresh_lookahead() {
    Time min_latency = default_link_.latency;
    for (const auto& [k, cfg] : link_overrides_) min_latency = std::min(min_latency, cfg.latency);
    sim_.set_lookahead(min_latency);
}

void Network::set_link(NodeId from, NodeId to, const LinkConfig& cfg) {
    link_overrides_[key(from, to)] = cfg;
    refresh_lookahead();
}

const LinkConfig& Network::link(NodeId from, NodeId to) const {
    auto it = link_overrides_.find(key(from, to));
    return it != link_overrides_.end() ? it->second : default_link_;
}

void Network::set_node_down(NodeId id, bool down) {
    if (down) {
        down_.insert(id);
    } else {
        down_.erase(id);
    }
}

void Network::set_node_muted(NodeId id, bool muted) {
    auto it = nodes_.find(id);
    NEO_ASSERT_MSG(it != nodes_.end(), "set_node_muted: unknown node");
    it->second->muted_ = muted;
}

std::uint64_t Network::delivered_to(NodeId id) const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
        auto it = s.delivered_to.find(id);
        if (it != s.delivered_to.end()) total += it->second;
    }
    return total;
}

void Network::reset_counters() {
    for (auto& s : shards_) s = Shard{};
}

Time Network::total_cpu_busy() const {
    Time total = 0;
    for (const auto& [id, node] : nodes_) total += node->cpu_busy_time();
    return total;
}

Time Network::total_queue_wait() const {
    Time total = 0;
    for (const auto& [id, node] : nodes_) total += node->cpu_queue_wait();
    return total;
}

void Network::count_drop(obs::DropReason reason, Time t, NodeId from, NodeId to,
                         std::size_t bytes) {
    Shard& s = shard();
    ++s.packets_dropped;
    ++s.drops_by_reason[static_cast<std::size_t>(reason)];
    if (obs::TraceSink* tr = sim_.trace()) tr->packet_drop(t, from, to, bytes, reason);
}

void Network::register_metrics(obs::Registry& reg, const std::string& prefix) {
    reg.add_collector([this, prefix](obs::Registry& r) {
        r.set_value(prefix + ".packets_sent", static_cast<double>(packets_sent()));
        r.set_value(prefix + ".packets_delivered", static_cast<double>(packets_delivered()));
        r.set_value(prefix + ".packets_dropped", static_cast<double>(packets_dropped()));
        r.set_value(prefix + ".bytes_sent", static_cast<double>(bytes_sent()));
        r.set_value(prefix + ".transit_time_ns", static_cast<double>(transit_time()));
        for (std::size_t i = 0; i < static_cast<std::size_t>(obs::DropReason::kCount_); ++i) {
            std::uint64_t n = dropped_for(static_cast<obs::DropReason>(i));
            if (n == 0) continue;
            r.set_value(prefix + ".drops." +
                            obs::drop_reason_name(static_cast<obs::DropReason>(i)),
                        static_cast<double>(n));
        }
        if (std::uint64_t n = tamper_mutations(); n != 0) {
            r.set_value(prefix + ".tamper.mutations", static_cast<double>(n));
        }
        // Merge the per-shard delivered-to maps and dump keys in sorted
        // order via a reused scratch vector (no ordered map rebuild per
        // dump).
        delivered_scratch_.clear();
        for (const auto& s : shards_) {
            for (const auto& [node, count] : s.delivered_to) {
                delivered_scratch_.emplace_back(node, count);
            }
        }
        std::sort(delivered_scratch_.begin(), delivered_scratch_.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        // Same destination may appear in several shards: fold runs of equal
        // keys while emitting.
        for (std::size_t i = 0; i < delivered_scratch_.size();) {
            NodeId node = delivered_scratch_[i].first;
            std::uint64_t count = 0;
            for (; i < delivered_scratch_.size() && delivered_scratch_[i].first == node; ++i) {
                count += delivered_scratch_[i].second;
            }
            r.set_value(prefix + ".delivered_to." + std::to_string(node),
                        static_cast<double>(count));
        }
    });
}

void Network::send_at(Time depart, NodeId from, NodeId to, Packet data) {
    NEO_ASSERT(depart >= sim_.now());
    {
        Shard& s = shard();
        ++s.packets_sent;
        s.bytes_sent += data.size();
    }

    if (is_down(from)) {
        count_drop(obs::DropReason::kSenderDown, depart, from, to, data.size());
        return;
    }
    if (is_blocked(from, to)) {
        count_drop(obs::DropReason::kPartitioned, depart, from, to, data.size());
        return;
    }

    // All randomness below comes from the sender's private counter-based
    // stream, in a fixed per-packet draw order (drop gate, then jitter):
    // the values depend only on this sender's send history, not on global
    // event interleaving or thread count.
    StreamRng& rng = stream(from);

    const LinkConfig& cfg = link(from, to);
    double effective_drop = cfg.drop_rate + global_drop_rate_;
    if (effective_drop > 0.0 && rng.chance(effective_drop)) {
        count_drop(obs::DropReason::kLinkLoss, depart, from, to, data.size());
        return;
    }

    if (tamper_) {
        // Copy-on-write: the tamper hook mutates a private copy so the
        // other receivers of a shared multicast buffer are unaffected.
        Bytes mutated(data.view().begin(), data.view().end());
        if (tamper_(from, to, mutated) == TamperAction::kDrop) {
            count_drop(obs::DropReason::kTampered, depart, from, to, mutated.size());
            return;
        }
        // Attribute actual mutations (the clone may come back unchanged —
        // most hooks target one link): counter + structured trace event,
        // identical on the serial and PDES paths. Untouched clones keep the
        // original shared buffer.
        bool changed = mutated.size() != data.size() ||
                       !std::equal(mutated.begin(), mutated.end(), data.view().begin());
        if (changed) {
            ++shard().tamper_mutations;
            if (obs::TraceSink* tr = sim_.trace()) {
                tr->tamper_mutate(depart, from, to, mutated.size());
            }
            data = Packet(std::move(mutated));
        }
    }

    if (obs::TraceSink* tr = sim_.trace()) tr->packet_send(depart, from, to, data.size());

    Time latency = cfg.latency;
    if (cfg.jitter > 0) latency += static_cast<Time>(rng.uniform(static_cast<std::uint64_t>(cfg.jitter)));
    latency += static_cast<Time>(cfg.ns_per_byte * static_cast<double>(data.size()));

    auto deliver = [this, from, to, latency, data = std::move(data)]() {
        auto it = nodes_.find(to);
        if (it == nodes_.end()) {
            count_drop(obs::DropReason::kNoRoute, sim_.now(), from, to, data.size());
            return;
        }
        if (is_down(to)) {
            count_drop(obs::DropReason::kReceiverDown, sim_.now(), from, to, data.size());
            return;
        }
        Shard& s = shard();
        ++s.packets_delivered;
        ++s.delivered_to[to];
        s.transit_time += latency;
        if (obs::TraceSink* tr = sim_.trace()) {
            tr->packet_deliver(sim_.now(), from, to, data.size());
        }
        it->second->on_packet(from, data);
    };
    // The whole point of the EventFn small-buffer store: a delivery event
    // must never allocate. If this closure grows past the inline capacity,
    // shrink it (or grow EventFn::kInlineSize) rather than silently
    // spilling to the heap.
    static_assert(EventFn::fits_inline<decltype(deliver)>,
                  "packet-delivery closure must fit EventFn's inline buffer");
    // Executes on the receiver's partition; latency >= cfg.latency >= the
    // simulator lookahead, so the conservative contract holds for every
    // cross-partition delivery.
    sim_.at_node(depart + latency, to, std::move(deliver));
}

}  // namespace neo::sim
