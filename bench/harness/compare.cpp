#include "harness/compare.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "harness/bench_json.hpp"

namespace neo::bench {

const char* delta_status_name(DeltaStatus s) {
    switch (s) {
        case DeltaStatus::kOk: return "ok";
        case DeltaStatus::kImproved: return "improved";
        case DeltaStatus::kRegressed: return "REGRESSED";
        case DeltaStatus::kZeroBaseline: return "zero-baseline";
    }
    return "?";
}

std::size_t CompareReport::regressions() const {
    std::size_t n = 0;
    for (const auto& d : deltas) {
        if (d.status == DeltaStatus::kRegressed) ++n;
    }
    return n;
}

bool is_host_metric(const std::string& name) { return name.rfind("host_", 0) == 0; }

bool is_phase_metric(const std::string& name) { return name.rfind("phase_", 0) == 0; }

namespace {

bool ends_with(const std::string& s, const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

InfoKind info_kind(const std::string& metric) {
    if (is_phase_metric(metric)) return InfoKind::kPhase;
    return ends_with(metric, "_ns") ? InfoKind::kHostTime : InfoKind::kHostRatio;
}

namespace {

std::string format_info_value(const std::string& metric, InfoKind kind, double v) {
    char buf[48];
    switch (kind) {
        case InfoKind::kHostTime:
            std::snprintf(buf, sizeof(buf), "%.2f", v / 1e6);
            break;
        case InfoKind::kHostRatio:
            std::snprintf(buf, sizeof(buf), "%.2fx", v);
            break;
        case InfoKind::kPhase:
            std::snprintf(buf, sizeof(buf), "%.3f%s", v,
                          ends_with(metric, "_us")    ? " us"
                          : ends_with(metric, "_pct") ? " %"
                                                      : "");
            break;
    }
    return buf;
}

}  // namespace

std::string format_host_report(const std::vector<MetricDelta>& deltas) {
    struct Section {
        InfoKind kind;
        const char* title;
        const char* base;
        const char* cand;
    };
    static const Section kSections[] = {
        {InfoKind::kHostTime, "host time (wall clock, informational — does not gate):", "base_ms",
         "cand_ms"},
        {InfoKind::kHostRatio, "host ratios (informational — does not gate):", "base", "cand"},
        {InfoKind::kPhase,
         "critical-path attribution (virtual time, informational — does not gate):", "base",
         "cand"},
    };
    std::string out;
    char line[256];
    for (const Section& sec : kSections) {
        bool header = false;
        for (const MetricDelta& d : deltas) {
            if (info_kind(d.metric) != sec.kind) continue;
            if (!header) {
                if (!out.empty()) out += "\n";
                out += sec.title;
                std::snprintf(line, sizeof(line), "\n  %-36s %14s %14s %9s\n", "point:metric",
                              sec.base, sec.cand, "delta");
                out += line;
                header = true;
            }
            const std::string label = d.point + ":" + d.metric;
            std::snprintf(line, sizeof(line), "  %-36s %14s %14s %+8.1f%%\n", label.c_str(),
                          format_info_value(d.metric, sec.kind, d.base_mean).c_str(),
                          format_info_value(d.metric, sec.kind, d.cand_mean).c_str(),
                          d.rel_delta * 100);
            out += line;
        }
    }
    return out;
}

Json strip_host_metrics(const Json& suite) {
    if (!suite.is_object()) return suite;
    Json out = Json::object();
    for (const auto& [key, value] : suite.members()) {
        if (key != "points" || !value.is_array()) {
            out.set(key, value);
            continue;
        }
        Json points = Json::array();
        for (const auto& p : value.items()) {
            if (!p.is_object()) {
                points.push_back(p);
                continue;
            }
            Json np = Json::object();
            for (const auto& [pk, pv] : p.members()) {
                if (pk != "metrics" || !pv.is_object()) {
                    np.set(pk, pv);
                    continue;
                }
                Json metrics = Json::object();
                for (const auto& [mk, mv] : pv.members()) {
                    if (!is_host_metric(mk)) metrics.set(mk, mv);
                }
                np.set(pk, std::move(metrics));
            }
            points.push_back(std::move(np));
        }
        out.set(key, std::move(points));
    }
    return out;
}

bool metric_lower_is_better(const std::string& name) {
    auto ends_with = [&name](const char* suffix) {
        std::string s(suffix);
        return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with("_us") || ends_with("_ns") || ends_with("_ms") || ends_with("_per_op")) {
        return true;
    }
    return name.find("drop") != std::string::npos || name.find("latency") != std::string::npos;
}

double tolerance_for(const CompareConfig& cfg, const std::string& point,
                     const std::string& metric) {
    auto it = cfg.metric_tolerance.find(point + ":" + metric);
    if (it != cfg.metric_tolerance.end()) return it->second;
    it = cfg.metric_tolerance.find(metric);
    if (it != cfg.metric_tolerance.end()) return it->second;
    return cfg.tolerance;
}

namespace {

constexpr double kZeroEps = 1e-12;

const Json* checked_suite(const Json& doc, const char* which,
                          std::vector<std::string>& errors) {
    const Json* schema = doc.find("schema");
    if (!schema || !schema->is_string() || schema->string() != "neo-bench-suite@1") {
        errors.push_back(std::string(which) + ": not a neo-bench-suite@1 document");
        return nullptr;
    }
    const Json* points = doc.find("points");
    if (!points || !points->is_array()) {
        errors.push_back(std::string(which) + ": missing points array");
        return nullptr;
    }
    return points;
}

const Json* find_point(const Json& points, const std::string& name) {
    for (const auto& p : points.items()) {
        const Json* n = p.find("name");
        if (n && n->is_string() && n->string() == name) return &p;
    }
    return nullptr;
}

}  // namespace

CompareReport compare_suites(const Json& baseline, const Json& candidate,
                             const CompareConfig& cfg) {
    CompareReport rep;
    const Json* base_points = checked_suite(baseline, "baseline", rep.errors);
    const Json* cand_points = checked_suite(candidate, "candidate", rep.errors);
    if (!base_points || !cand_points) return rep;

    for (const auto& bp : base_points->items()) {
        const Json* name = bp.find("name");
        if (!name || !name->is_string()) {
            rep.errors.push_back("baseline: point without a name");
            continue;
        }
        const Json* cp = find_point(*cand_points, name->string());
        if (!cp) {
            rep.errors.push_back("candidate is missing point \"" + name->string() + "\"");
            continue;
        }
        const Json* base_metrics = bp.find("metrics");
        const Json* cand_metrics = cp->find("metrics");
        if (!base_metrics || !base_metrics->is_object()) continue;
        for (const auto& [metric, bstats] : base_metrics->members()) {
            const Json* cstats = cand_metrics ? cand_metrics->find(metric) : nullptr;
            // Informational metrics: reported alongside the gated deltas but
            // never regressions, and free to come and go between suites.
            bool host = is_host_metric(metric) || is_phase_metric(metric);
            if (!cstats) {
                if (host) continue;  // informational fields may come and go
                rep.errors.push_back("candidate point \"" + name->string() +
                                     "\" is missing metric \"" + metric + "\"");
                continue;
            }
            if (host) {
                MetricDelta d;
                d.point = name->string();
                d.metric = metric;
                d.lower_is_better = true;
                try {
                    d.base_mean = bstats.at("mean").number();
                    d.cand_mean = cstats->at("mean").number();
                } catch (const JsonError&) {
                    continue;
                }
                if (std::fabs(d.base_mean) < kZeroEps) {
                    d.status = DeltaStatus::kZeroBaseline;
                } else {
                    d.rel_delta = (d.cand_mean - d.base_mean) / std::fabs(d.base_mean);
                }
                rep.host_deltas.push_back(d);
                continue;
            }
            MetricDelta d;
            d.point = name->string();
            d.metric = metric;
            try {
                d.base_mean = bstats.at("mean").number();
                d.cand_mean = cstats->at("mean").number();
            } catch (const JsonError& e) {
                rep.errors.push_back("point \"" + name->string() + "\" metric \"" + metric +
                                     "\": " + e.what());
                continue;
            }
            d.lower_is_better = metric_lower_is_better(metric);
            d.tolerance = tolerance_for(cfg, d.point, d.metric);
            if (std::fabs(d.base_mean) < kZeroEps) {
                d.status = DeltaStatus::kZeroBaseline;
                rep.deltas.push_back(d);
                continue;
            }
            d.rel_delta = (d.cand_mean - d.base_mean) / std::fabs(d.base_mean);
            double bad = d.lower_is_better ? d.rel_delta : -d.rel_delta;
            if (bad > d.tolerance) {
                d.status = DeltaStatus::kRegressed;
            } else if (-bad > d.tolerance) {
                d.status = DeltaStatus::kImproved;
            } else {
                d.status = DeltaStatus::kOk;
            }
            rep.deltas.push_back(d);
        }
    }
    return rep;
}

namespace {

const Json* checked_micro(const Json& doc, const char* which,
                          std::vector<std::string>& errors) {
    const Json* benchmarks = doc.find("benchmarks");
    if (!benchmarks || !benchmarks->is_array()) {
        errors.push_back(std::string(which) +
                         ": not a google-benchmark JSON document (no benchmarks array)");
        return nullptr;
    }
    return benchmarks;
}

/// Per-iteration rows only: with --benchmark_repetitions google-benchmark
/// adds mean/median/stddev aggregate rows tagged by run_type.
bool is_iteration_row(const Json& row) {
    const Json* rt = row.find("run_type");
    return !rt || !rt->is_string() || rt->string() == "iteration";
}

const Json* find_micro(const Json& benchmarks, const std::string& name) {
    for (const auto& b : benchmarks.items()) {
        const Json* n = b.find("name");
        if (n && n->is_string() && n->string() == name && is_iteration_row(b)) return &b;
    }
    return nullptr;
}

}  // namespace

CompareReport compare_micro(const Json& baseline, const Json& candidate,
                            const CompareConfig& cfg) {
    CompareReport rep;
    const Json* base = checked_micro(baseline, "baseline", rep.errors);
    const Json* cand = checked_micro(candidate, "candidate", rep.errors);
    if (!base || !cand) return rep;

    for (const auto& bb : base->items()) {
        const Json* name = bb.find("name");
        if (!name || !name->is_string() || !is_iteration_row(bb)) continue;
        const Json* cb = find_micro(*cand, name->string());
        if (!cb) {
            rep.errors.push_back("candidate is missing benchmark \"" + name->string() + "\"");
            continue;
        }
        MetricDelta d;
        d.point = "micro";
        d.metric = name->string();
        d.lower_is_better = true;  // cpu_time per iteration
        d.tolerance = tolerance_for(cfg, d.point, d.metric);
        try {
            d.base_mean = bb.at("cpu_time").number();
            d.cand_mean = cb->at("cpu_time").number();
        } catch (const JsonError& e) {
            rep.errors.push_back("benchmark \"" + name->string() + "\": " + e.what());
            continue;
        }
        if (std::fabs(d.base_mean) < kZeroEps) {
            d.status = DeltaStatus::kZeroBaseline;
            rep.deltas.push_back(d);
            continue;
        }
        d.rel_delta = (d.cand_mean - d.base_mean) / std::fabs(d.base_mean);
        if (d.rel_delta > d.tolerance) {
            d.status = DeltaStatus::kRegressed;
        } else if (-d.rel_delta > d.tolerance) {
            d.status = DeltaStatus::kImproved;
        } else {
            d.status = DeltaStatus::kOk;
        }
        rep.deltas.push_back(d);
    }
    return rep;
}

}  // namespace neo::bench
