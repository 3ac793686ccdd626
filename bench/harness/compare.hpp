// Suite-diff logic behind the bench_compare CLI: compares two
// neo-bench-suite@1 JSON documents metric-by-metric against relative
// tolerances, classifying each delta so CI can gate on regressions while
// improvements and in-tolerance noise pass.
//
// Direction is inferred from the metric name (see metric_lower_is_better):
// latency/cost-shaped metrics regress upward, throughput-shaped metrics
// regress downward. A missing point or metric in the candidate is an error
// (schema drift is a regression of the trajectory itself); extra points in
// the candidate are ignored so suites can grow without breaking the gate.
// host_* metrics (wall-clock measurements like host_ns) are inherently
// nondeterministic: compare_suites reports them separately and never gates
// on them, and determinism tests strip them before byte comparisons.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace neo::bench {

class Json;

struct CompareConfig {
    /// Default relative tolerance on the mean (0.15 = ±15%).
    double tolerance = 0.15;
    /// Per-metric overrides; keys are a metric name ("p99_us") or a
    /// point-qualified "point:metric" ("aom_hm.r4:p99_us", which wins).
    std::map<std::string, double> metric_tolerance;
};

enum class DeltaStatus {
    kOk,            // within tolerance
    kImproved,      // beyond tolerance in the good direction
    kRegressed,     // beyond tolerance in the bad direction
    kZeroBaseline,  // baseline mean ~ 0: relative compare undefined, skipped
};
const char* delta_status_name(DeltaStatus s);

struct MetricDelta {
    std::string point;
    std::string metric;
    double base_mean = 0;
    double cand_mean = 0;
    double rel_delta = 0;  // (cand - base) / |base|
    double tolerance = 0;
    bool lower_is_better = false;
    DeltaStatus status = DeltaStatus::kOk;
};

struct CompareReport {
    std::vector<MetricDelta> deltas;
    /// Informational deltas (host_* wall-clock and phase_* attribution; see
    /// format_host_report):
    /// never counted as regressions, and missing on either side is not an
    /// error (old baselines predate these fields).
    std::vector<MetricDelta> host_deltas;
    std::vector<std::string> errors;  // missing points/metrics, schema drift

    std::size_t regressions() const;
    bool ok() const { return errors.empty() && regressions() == 0; }
};

/// Direction heuristic: metric names shaped like a time, a cost-per-op or
/// a drop count regress when they grow; everything else (throughput,
/// completion counts, percentages of useful work) regresses when it
/// shrinks.
bool metric_lower_is_better(const std::string& name);

/// True for wall-clock ("host_"-prefixed) metrics, which vary run to run
/// even on identical simulated results.
bool is_host_metric(const std::string& name);

/// True for critical-path attribution ("phase_"-prefixed) metrics. They are
/// deterministic — determinism tests keep them in byte comparisons — but
/// attribution shares shift with any pipeline change, so the gate reports
/// their deltas without ever counting them as regressions, and a phase
/// metric missing on either side is not an error (old baselines predate
/// them).
bool is_phase_metric(const std::string& name);

/// How an informational delta is printed: wall-clock `host_*_ns` in ms,
/// other host_* metrics (host_speedup) as a factor, phase_* attribution in
/// its own virtual-time unit.
enum class InfoKind { kHostTime, kHostRatio, kPhase };
InfoKind info_kind(const std::string& metric);

/// The `bench_compare --host-report` text: one table per InfoKind present in
/// `deltas` (rows in report order), empty when there are none.
std::string format_host_report(const std::vector<MetricDelta>& deltas);

/// Copy of a neo-bench-suite@1 document with every host_* metric removed
/// from every point — what determinism tests byte-compare.
Json strip_host_metrics(const Json& suite);

/// Effective tolerance for (point, metric) under `cfg`.
double tolerance_for(const CompareConfig& cfg, const std::string& point,
                     const std::string& metric);

/// Diffs every baseline point/metric against the candidate suite. Both
/// documents must be neo-bench-suite@1 (anything else is reported in
/// `errors`).
CompareReport compare_suites(const Json& baseline, const Json& candidate,
                             const CompareConfig& cfg);

/// Diffs two google-benchmark JSON documents (the micro_crypto / micro_sim
/// `--benchmark_out` format): every baseline `benchmarks[].name` must exist
/// in the candidate, and its `cpu_time` is gated like a lower-is-better
/// metric under `cfg` tolerances (point name "micro"). Aggregate rows
/// (run_type != "iteration") are skipped. Micro benchmarks measure real
/// wall-clock, so callers use a wider tolerance than the suite gate (CI
/// passes ±20%).
CompareReport compare_micro(const Json& baseline, const Json& candidate,
                            const CompareConfig& cfg);

}  // namespace neo::bench
