// bench_compare: diff two neo-bench-suite@1 JSON files and exit non-zero
// on perf regression — the CI gate over the BENCH_*.json trajectory.
//
//   bench_compare <baseline.json> <candidate.json>
//       [--tolerance <frac>]           default ±0.15 on every metric mean
//       [--tol <metric>=<frac>]...     per-metric override; <metric> may be
//                                      "name" or "point:name"
//       [--micro]                      inputs are google-benchmark JSON
//                                      (micro_crypto/micro_sim --json output);
//                                      gates each benchmark's cpu_time,
//                                      default tolerance widens to ±0.20
//                                      (micro benches measure wall clock)
//       [--verbose]                    print in-tolerance deltas too
//       [--host-report]                print the informational deltas —
//                                      wall-clock host_*_ns in ms, host
//                                      ratios (host_speedup) as a factor,
//                                      phase_* attribution in virtual us;
//                                      never gates
//
// Exit codes: 0 = no regression; 1 = at least one metric regressed beyond
// tolerance; 2 = structural error (unreadable file, schema drift, missing
// point/metric in the candidate). host_* metrics never affect the exit
// code: wall-clock time is machine-dependent.
#include <cstdio>
#include <cstring>
#include <string>

#include "harness/bench_json.hpp"
#include "harness/compare.hpp"

using namespace neo::bench;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <baseline.json> <candidate.json> [--tolerance <frac>]\n"
                 "       [--tol <metric>=<frac>]... [--micro] [--verbose] [--host-report]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string base_path, cand_path;
    CompareConfig cfg;
    bool verbose = false;
    bool host_report = false;
    bool micro = false;
    bool tolerance_set = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--tolerance" && i + 1 < argc) {
            cfg.tolerance = std::strtod(argv[++i], nullptr);
            tolerance_set = true;
        } else if (a == "--micro") {
            micro = true;
        } else if (a == "--tol" && i + 1 < argc) {
            std::string kv = argv[++i];
            std::size_t eq = kv.rfind('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr, "bench_compare: bad --tol '%s' (want metric=frac)\n",
                             kv.c_str());
                return 2;
            }
            cfg.metric_tolerance[kv.substr(0, eq)] = std::strtod(kv.c_str() + eq + 1, nullptr);
        } else if (a == "--verbose" || a == "-v") {
            verbose = true;
        } else if (a == "--host-report") {
            host_report = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "bench_compare: unknown flag '%s'\n", a.c_str());
            return usage(argv[0]);
        } else if (base_path.empty()) {
            base_path = a;
        } else if (cand_path.empty()) {
            cand_path = a;
        } else {
            return usage(argv[0]);
        }
    }
    if (base_path.empty() || cand_path.empty()) return usage(argv[0]);

    Json base, cand;
    try {
        base = Json::parse_file(base_path);
    } catch (const JsonError& e) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", base_path.c_str(), e.what());
        return 2;
    }
    try {
        cand = Json::parse_file(cand_path);
    } catch (const JsonError& e) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", cand_path.c_str(), e.what());
        return 2;
    }

    if (micro && !tolerance_set) cfg.tolerance = 0.20;  // micro = wall clock
    CompareReport rep = micro ? compare_micro(base, cand, cfg) : compare_suites(base, cand, cfg);

    for (const auto& err : rep.errors) {
        std::fprintf(stderr, "ERROR: %s\n", err.c_str());
    }
    std::size_t shown = 0;
    for (const auto& d : rep.deltas) {
        bool noteworthy = d.status == DeltaStatus::kRegressed ||
                          d.status == DeltaStatus::kImproved;
        if (!verbose && !noteworthy) continue;
        std::printf("%-13s %s:%s  base=%s cand=%s  delta=%+.1f%% (tol ±%.0f%%, %s better)\n",
                    delta_status_name(d.status), d.point.c_str(), d.metric.c_str(),
                    Json::format_number(d.base_mean).c_str(),
                    Json::format_number(d.cand_mean).c_str(), d.rel_delta * 100,
                    d.tolerance * 100, d.lower_is_better ? "lower" : "higher");
        ++shown;
    }

    if (host_report && !rep.host_deltas.empty()) {
        std::printf("%s%s", shown ? "\n" : "", format_host_report(rep.host_deltas).c_str());
    }

    std::size_t regressed = rep.regressions();
    std::printf("%scompared %zu metric means: %zu regressed, %zu structural error%s\n",
                shown ? "\n" : "", rep.deltas.size(), regressed, rep.errors.size(),
                rep.errors.size() == 1 ? "" : "s");
    if (!rep.errors.empty()) return 2;
    return regressed ? 1 : 0;
}
