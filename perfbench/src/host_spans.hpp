// Host-time spans the benchmark records around its calls into the
// program's layers (factories, run loop, engine, obs, auditor, teardown,
// crypto). Coarse spans are kept individually with their parent; spans
// around per-operation calls (OpGen, StateMachine::execute) are summed
// per name, since one run makes hundreds of thousands of them; the sums are
// atomic so such call sites stay race-free on simulator worker threads.
// Everything is off unless enabled, so an
// untraced run pays one branch per call site.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t host_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Per-operation call sites whose spans are summed rather than kept.
enum class Hot : std::size_t { kOpGen, kAppExecute, kCount_ };

class HostSpans {
  public:
    struct Span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        int parent = -1;  // index into spans(); -1 = top level
        int iteration = 0;
    };

    void set_enabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    void set_iteration(int i) { iteration_ = i; }

    /// Opens a span on the calling (main) thread; returns -1 when disabled.
    int begin(const char* name);
    void end(int id);
    /// Records a span whose bounds were taken elsewhere (e.g. the engine
    /// part of run_closed_loop, ended by an event inside the run).
    void add(const char* name, std::int64_t start_ns, std::int64_t end_ns);

    void add_hot(Hot h, std::int64_t ns) {
        HotAcc& a = hot_[static_cast<std::size_t>(h)];
        a.calls.fetch_add(1, std::memory_order_relaxed);
        a.ns.fetch_add(ns, std::memory_order_relaxed);
    }
    struct HotTotals {
        std::uint64_t calls = 0;
        std::int64_t ns = 0;
    };
    /// Returns and clears the totals of one hot call site, keeping a copy
    /// for write_json() under the current iteration.
    HotTotals take_hot(Hot h);

    /// Writes every recorded span and the per-iteration hot totals as JSON.
    /// Returns false on I/O error.
    bool write_json(const std::string& path, const std::string& header_json) const;

  private:
    struct HotAcc {
        std::atomic<std::uint64_t> calls{0};
        std::atomic<std::int64_t> ns{0};
    };
    bool enabled_ = false;
    int iteration_ = 0;
    struct HotRecord {
        int iteration;
        Hot site;
        HotTotals totals;
    };
    std::vector<Span> spans_;
    std::vector<HotRecord> hot_records_;
    std::vector<int> stack_;
    std::array<HotAcc, static_cast<std::size_t>(Hot::kCount_)> hot_;
};

/// RAII span on the main thread.
class SpanScope {
  public:
    SpanScope(HostSpans& s, const char* name) : s_(s), id_(s.begin(name)) {}
    ~SpanScope() { s_.end(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    HostSpans& s_;
    int id_;
};

}  // namespace perfbench
