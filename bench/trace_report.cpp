// Offline critical-path analysis and schema lint for exported traces.
//
// Reads a trace written by --trace (JSONL when the path ends in ".jsonl",
// Chrome trace_event JSON otherwise), streams its request-scoped span
// events into obs::CriticalPathAccumulator as they are parsed and prints
// the same per-phase p50/p99 attribution table fig7 computes in-process
// (obs::format_report) — the phase durations telescope, so their sum
// matches the end-to-end commit latency exactly.
//
//   trace_report <trace.json|trace.jsonl>          attribution report
//   trace_report <trace.json|trace.jsonl> --lint   schema validation only
//
// Lint checks (CI's trace-lint step): the document parses, every event
// carries the required fields with a known event kind, span events have a
// nonzero trace id, and no span closes without a matching open. Spans
// still open at the end of the capture are normal (requests in flight at
// the run deadline) and only reported as a count. Exit status: 0 clean,
// 1 findings, 2 usage/IO errors.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "harness/bench_json.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"

namespace {

using neo::bench::Json;
using neo::bench::JsonError;

struct Parsed {
    neo::obs::CriticalPathAccumulator critical_path;
    std::size_t span_events = 0;  // well-formed span events fed to critical_path
    std::size_t events = 0;
    std::size_t open_spans = 0;  // begins never closed (in flight at capture end)
    std::vector<std::string> errors;
};

constexpr std::size_t kMaxErrors = 20;

void add_error(Parsed& p, std::string msg) {
    if (p.errors.size() < kMaxErrors) p.errors.push_back(std::move(msg));
}

bool known_kind(const std::string& name) {
    using neo::obs::EventKind;
    for (unsigned k = 0; k < static_cast<unsigned>(EventKind::kCount_); ++k) {
        if (name == neo::obs::event_kind_name(static_cast<EventKind>(k))) return true;
    }
    return false;
}

/// Order-aware begin/end pairing per (node, span name, trace id): an end
/// with no open begin is a schema error; leftover begins are counted.
class SpanBalance {
  public:
    bool on_begin(const neo::obs::SpanRecord& s) {
        ++open_[key(s)];
        return true;
    }
    bool on_end(const neo::obs::SpanRecord& s) {
        auto it = open_.find(key(s));
        if (it == open_.end()) return false;
        if (--it->second == 0) open_.erase(it);  // only open spans stay keyed
        return true;
    }
    std::size_t still_open() const {
        std::size_t n = 0;
        for (const auto& [k, v] : open_) n += static_cast<std::size_t>(v);
        return n;
    }

  private:
    using Key = std::tuple<neo::NodeId, std::string, std::uint64_t>;
    static Key key(const neo::obs::SpanRecord& s) { return {s.node, s.name, s.tid}; }
    std::map<Key, long> open_;
};

void take_span(Parsed& p, SpanBalance& bal, const neo::obs::SpanRecord& s,
               const std::string& where) {
    if (s.tid == 0) {
        add_error(p, where + ": span event with zero trace_id");
        return;
    }
    if (s.begin) {
        bal.on_begin(s);
    } else if (!bal.on_end(s)) {
        add_error(p, where + ": span_end \"" + s.name + "\" without a matching begin");
        return;
    }
    ++p.span_events;
    p.critical_path.add(s.t, s.node, s.begin, s.name, s.tid, s.peer);
}

void parse_jsonl(std::istream& in, Parsed& p) {
    SpanBalance bal;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        std::string where = "line " + std::to_string(lineno);
        Json e;
        try {
            e = Json::parse(line);
        } catch (const JsonError& err) {
            add_error(p, where + ": " + err.what());
            continue;
        }
        ++p.events;
        const Json* t = e.find("t");
        const Json* node = e.find("node");
        const Json* ev = e.find("ev");
        if (!t || !t->is_number() || !node || !node->is_number() || !ev || !ev->is_string()) {
            add_error(p, where + ": event without numeric t/node and string ev");
            continue;
        }
        if (!known_kind(ev->string())) {
            add_error(p, where + ": unknown event kind \"" + ev->string() + "\"");
            continue;
        }
        bool begin = ev->string() == "span_begin";
        if (!begin && ev->string() != "span_end") continue;
        const Json* label = e.find("label");
        const Json* tid = e.find("trace_id");
        const Json* peer = e.find("peer");
        if (!label || !label->is_string() || !tid || !tid->is_number() || !peer ||
            !peer->is_number()) {
            add_error(p, where + ": span event without label/trace_id/peer");
            continue;
        }
        neo::obs::SpanRecord s;
        s.t = static_cast<neo::sim::Time>(t->number());
        s.node = static_cast<neo::NodeId>(node->number());
        s.begin = begin;
        s.name = label->string();
        s.tid = static_cast<std::uint64_t>(tid->number());
        s.peer = static_cast<std::uint64_t>(peer->number());
        take_span(p, bal, s, where);
    }
    p.open_spans = bal.still_open();
}

void parse_chrome(const std::string& path, Parsed& p) {
    SpanBalance bal;
    Json doc;
    try {
        doc = Json::parse_file(path);
    } catch (const JsonError& err) {
        add_error(p, std::string("parse: ") + err.what());
        return;
    }
    const Json* evs = doc.find("traceEvents");
    if (!evs || !evs->is_array()) {
        add_error(p, "not a Chrome trace document (missing traceEvents array)");
        return;
    }
    std::size_t idx = 0;
    for (const Json& e : evs->items()) {
        std::string where = "traceEvents[" + std::to_string(idx++) + "]";
        if (!e.is_object()) {
            add_error(p, where + ": not an object");
            continue;
        }
        ++p.events;
        const Json* ph = e.find("ph");
        const Json* name = e.find("name");
        const Json* tid = e.find("tid");
        if (!ph || !ph->is_string() || !name || !name->is_string() || !tid ||
            !tid->is_number()) {
            add_error(p, where + ": event without ph/name/tid");
            continue;
        }
        const std::string& phase = ph->string();
        if (phase == "M") continue;  // metadata rows carry no timestamp
        if (phase != "X" && phase != "i" && phase != "b" && phase != "e") {
            add_error(p, where + ": unexpected ph \"" + phase + "\"");
            continue;
        }
        const Json* ts = e.find("ts");
        if (!ts || !ts->is_number()) {
            add_error(p, where + ": event without numeric ts");
            continue;
        }
        if (phase != "b" && phase != "e") continue;
        const Json* id = e.find("id");
        const Json* args = e.find("args");
        const Json* peer = args ? args->find("peer") : nullptr;
        if (!id || !id->is_number() || !peer || !peer->is_number()) {
            add_error(p, where + ": span event without id/args.peer");
            continue;
        }
        neo::obs::SpanRecord s;
        s.t = static_cast<neo::sim::Time>(std::llround(ts->number() * 1000.0));  // us -> ns
        s.node = static_cast<neo::NodeId>(tid->number());
        s.begin = phase == "b";
        s.name = name->string();
        s.tid = static_cast<std::uint64_t>(id->number());
        s.peer = static_cast<std::uint64_t>(peer->number());
        take_span(p, bal, s, where);
    }
    p.open_spans = bal.still_open();
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <trace.json|trace.jsonl> [--lint]\n"
                 "  Reads a --trace export (JSONL when the path ends in .jsonl, Chrome\n"
                 "  trace_event JSON otherwise) and prints the commit critical-path\n"
                 "  attribution; --lint validates the schema instead (exit 1 on findings).\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string path;
    bool lint = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--lint") == 0) {
            lint = true;
        } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
            return usage(argv[0]);
        } else if (path.empty()) {
            path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (path.empty()) return usage(argv[0]);

    bool jsonl =
        path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
    Parsed p;
    if (jsonl) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "trace_report: cannot open %s\n", path.c_str());
            return 2;
        }
        parse_jsonl(in, p);
    } else {
        parse_chrome(path, p);
    }

    for (const std::string& e : p.errors) {
        std::fprintf(stderr, "trace-lint: %s\n", e.c_str());
    }
    if (p.errors.size() >= kMaxErrors) {
        std::fprintf(stderr, "trace-lint: (further findings suppressed)\n");
    }
    if (lint) {
        std::printf("trace-lint: %s — %zu events, %zu span events, %zu spans in flight\n",
                    p.errors.empty() ? "OK" : "FAILED", p.events, p.span_events,
                    p.open_spans);
        return p.errors.empty() ? 0 : 1;
    }

    neo::obs::CriticalPathReport rep = p.critical_path.report();
    std::printf("%s (%zu events, %zu span events, %zu spans in flight)\n", path.c_str(),
                p.events, p.span_events, p.open_spans);
    std::fputs(neo::obs::format_report(rep).c_str(), stdout);
    return p.errors.empty() ? 0 : 1;
}
