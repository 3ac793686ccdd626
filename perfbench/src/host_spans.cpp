#include "host_spans.hpp"

#include <fstream>

namespace perfbench {

int HostSpans::begin(const char* name) {
    if (!enabled_) return -1;
    add(name, host_ns(), 0);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void HostSpans::end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = host_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void HostSpans::add(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.iteration = iteration_;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(std::move(s));
}

HostSpans::HotTotals HostSpans::take_hot(Hot h) {
    HotAcc& a = hot_[static_cast<std::size_t>(h)];
    HotTotals t{a.calls.exchange(0, std::memory_order_relaxed),
                a.ns.exchange(0, std::memory_order_relaxed)};
    hot_records_.push_back({iteration_, h, t});
    return t;
}

bool HostSpans::write_json(const std::string& path, const std::string& header_json) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"run\":" << header_json << ",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"iteration\":" << s.iteration << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << (s.start_ns - t0) << ",\"dur_ns\":" << (s.end_ns - s.start_ns)
            << "}";
    }
    out << "\n],\"per_op\":[";
    static const char* const kHotNames[] = {"harness.opgen", "apps.execute"};
    for (std::size_t i = 0; i < hot_records_.size(); ++i) {
        const HotRecord& r = hot_records_[i];
        out << (i ? ",\n" : "\n") << "{\"iteration\":" << r.iteration << ",\"name\":\""
            << kHotNames[static_cast<std::size_t>(r.site)] << "\",\"calls\":" << r.totals.calls
            << ",\"ns\":" << r.totals.ns << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
