// Suite-diff logic: direction heuristic, tolerance resolution, and the
// classification the CI perf gate trusts.
#include <gtest/gtest.h>

#include <string>

#include "harness/bench_json.hpp"
#include "harness/compare.hpp"

using namespace neo::bench;

namespace {

// A one-point suite with a single metric mean, in the real schema.
Json suite_with(const std::string& point, const std::string& metric, double mean) {
    Json m = Json::object();
    m.set("mean", Json(mean));
    Json metrics = Json::object();
    metrics.set(metric, m);
    Json p = Json::object();
    p.set("name", Json(point));
    p.set("metrics", metrics);
    Json points = Json::array();
    points.push_back(p);
    Json s = Json::object();
    s.set("schema", Json(std::string("neo-bench-suite@1")));
    s.set("suite", Json(std::string("test")));
    s.set("points", points);
    return s;
}

}  // namespace

TEST(CompareDirection, LatencyAndDropShapedNamesRegressUpward) {
    EXPECT_TRUE(metric_lower_is_better("p99_us"));
    EXPECT_TRUE(metric_lower_is_better("service_ns"));
    EXPECT_TRUE(metric_lower_is_better("recovered_ms"));
    EXPECT_TRUE(metric_lower_is_better("cpu_us_per_op"));
    EXPECT_TRUE(metric_lower_is_better("tail_drops"));
    EXPECT_FALSE(metric_lower_is_better("tput_ops"));
    EXPECT_FALSE(metric_lower_is_better("delivered_mpps"));
    EXPECT_FALSE(metric_lower_is_better("signed_pct"));
    EXPECT_FALSE(metric_lower_is_better("completed"));
}

TEST(CompareTolerance, PointQualifiedOverrideWins) {
    CompareConfig cfg;
    cfg.tolerance = 0.15;
    cfg.metric_tolerance["p99_us"] = 0.30;
    cfg.metric_tolerance["aom_hm.r4:p99_us"] = 0.05;
    EXPECT_DOUBLE_EQ(tolerance_for(cfg, "aom_hm.r4", "p99_us"), 0.05);
    EXPECT_DOUBLE_EQ(tolerance_for(cfg, "aom_hm.r8", "p99_us"), 0.30);
    EXPECT_DOUBLE_EQ(tolerance_for(cfg, "aom_hm.r8", "tput_ops"), 0.15);
}

TEST(CompareSuites, WithinToleranceIsOk) {
    CompareConfig cfg;
    CompareReport r = compare_suites(suite_with("p", "tput_ops", 100),
                                     suite_with("p", "tput_ops", 95), cfg);
    ASSERT_TRUE(r.errors.empty());
    ASSERT_EQ(r.deltas.size(), 1u);
    EXPECT_EQ(r.deltas[0].status, DeltaStatus::kOk);
    EXPECT_TRUE(r.ok());
}

TEST(CompareSuites, ThroughputDropRegresses) {
    CompareConfig cfg;
    CompareReport r = compare_suites(suite_with("p", "tput_ops", 100),
                                     suite_with("p", "tput_ops", 50), cfg);
    ASSERT_EQ(r.deltas.size(), 1u);
    EXPECT_EQ(r.deltas[0].status, DeltaStatus::kRegressed);
    EXPECT_EQ(r.regressions(), 1u);
    EXPECT_FALSE(r.ok());
}

TEST(CompareSuites, ThroughputGainImprovesNotRegresses) {
    CompareConfig cfg;
    CompareReport r = compare_suites(suite_with("p", "tput_ops", 100),
                                     suite_with("p", "tput_ops", 200), cfg);
    EXPECT_EQ(r.deltas[0].status, DeltaStatus::kImproved);
    EXPECT_TRUE(r.ok());
}

TEST(CompareSuites, LatencyGrowthRegresses) {
    CompareConfig cfg;
    CompareReport r = compare_suites(suite_with("p", "p99_us", 10),
                                     suite_with("p", "p99_us", 20), cfg);
    EXPECT_EQ(r.deltas[0].status, DeltaStatus::kRegressed);
    // ...and shrinking latency is an improvement.
    r = compare_suites(suite_with("p", "p99_us", 20), suite_with("p", "p99_us", 10), cfg);
    EXPECT_EQ(r.deltas[0].status, DeltaStatus::kImproved);
}

TEST(CompareSuites, ZeroBaselineIsSkippedNotDivided) {
    CompareConfig cfg;
    CompareReport r = compare_suites(suite_with("p", "tail_drops", 0),
                                     suite_with("p", "tail_drops", 5), cfg);
    ASSERT_EQ(r.deltas.size(), 1u);
    EXPECT_EQ(r.deltas[0].status, DeltaStatus::kZeroBaseline);
    EXPECT_TRUE(r.ok());
}

TEST(CompareSuites, MissingPointOrMetricIsStructuralError) {
    CompareConfig cfg;
    CompareReport missing_point = compare_suites(suite_with("p", "tput_ops", 100),
                                                 suite_with("other", "tput_ops", 100), cfg);
    EXPECT_FALSE(missing_point.ok());
    EXPECT_FALSE(missing_point.errors.empty());

    CompareReport missing_metric = compare_suites(suite_with("p", "tput_ops", 100),
                                                  suite_with("p", "p99_us", 100), cfg);
    EXPECT_FALSE(missing_metric.ok());
    EXPECT_FALSE(missing_metric.errors.empty());
}

TEST(CompareSuites, ExtraCandidatePointsAreIgnored) {
    Json cand = suite_with("p", "tput_ops", 100);
    Json extra = Json::object();
    extra.set("name", Json(std::string("new_point")));
    extra.set("metrics", Json::object());
    // Append a point the baseline does not know about.
    Json points = Json::array();
    points.push_back(cand.at("points").items()[0]);
    points.push_back(extra);
    cand.set("points", points);
    CompareConfig cfg;
    CompareReport r = compare_suites(suite_with("p", "tput_ops", 100), cand, cfg);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.deltas.size(), 1u);
}

TEST(CompareSuites, WrongSchemaIsStructuralError) {
    Json bad = suite_with("p", "tput_ops", 100);
    bad.set("schema", Json(std::string("something-else@9")));
    CompareConfig cfg;
    CompareReport r = compare_suites(bad, suite_with("p", "tput_ops", 100), cfg);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.errors.empty());
}

TEST(CompareSuites, HostMetricsNeverGateAndNeverError) {
    CompareConfig cfg;
    // A 10x wall-clock blowup is reported but is not a regression.
    CompareReport r = compare_suites(suite_with("p", "host_ns", 1e6),
                                     suite_with("p", "host_ns", 1e7), cfg);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.deltas.empty());
    ASSERT_EQ(r.host_deltas.size(), 1u);
    EXPECT_EQ(r.host_deltas[0].metric, "host_ns");
    EXPECT_NEAR(r.host_deltas[0].rel_delta, 9.0, 1e-9);

    // A baseline recorded with host_ns compared against a candidate without
    // it (or vice versa) is not schema drift.
    CompareReport missing = compare_suites(suite_with("p", "host_ns", 1e6),
                                           suite_with("p", "tput_ops", 100), cfg);
    EXPECT_TRUE(missing.errors.empty());
    EXPECT_TRUE(missing.host_deltas.empty());
}

TEST(CompareSuites, StripHostMetricsRemovesOnlyHostFields) {
    EXPECT_TRUE(is_host_metric("host_ns"));
    EXPECT_TRUE(is_host_metric("host_rss_bytes"));
    EXPECT_FALSE(is_host_metric("tput_ops"));
    EXPECT_FALSE(is_host_metric("p99_us"));

    Json s = suite_with("p", "tput_ops", 100);
    Json m = Json::object();
    m.set("mean", Json(5e6));
    // suite_with built a one-metric object; rebuild the point with both.
    Json metrics = Json::object();
    metrics.set("tput_ops", s.at("points").items()[0].at("metrics").at("tput_ops"));
    metrics.set("host_ns", m);
    Json p = Json::object();
    p.set("name", Json(std::string("p")));
    p.set("metrics", metrics);
    Json points = Json::array();
    points.push_back(p);
    s.set("points", points);

    Json stripped = strip_host_metrics(s);
    const Json& sm = stripped.at("points").items()[0].at("metrics");
    EXPECT_NE(sm.find("tput_ops"), nullptr);
    EXPECT_EQ(sm.find("host_ns"), nullptr);
    // Stripping an already-clean suite is the identity.
    EXPECT_EQ(strip_host_metrics(stripped).dump(), stripped.dump());
}

TEST(CompareSuites, Tolerance_boundary_is_inclusive) {
    // Exactly at tolerance must NOT regress (CI gates on strict excess).
    CompareConfig cfg;
    cfg.tolerance = 0.15;
    CompareReport r = compare_suites(suite_with("p", "tput_ops", 100),
                                     suite_with("p", "tput_ops", 85), cfg);
    EXPECT_EQ(r.deltas[0].status, DeltaStatus::kOk);
}

// ---------- micro mode (google-benchmark JSON) ----------

namespace {

/// A google-benchmark document with one iteration row per (name, cpu_time).
Json micro_with(std::initializer_list<std::pair<const char*, double>> rows) {
    Json benchmarks = Json::array();
    for (const auto& [name, cpu] : rows) {
        Json b = Json::object();
        b.set("name", Json(std::string(name)));
        b.set("run_type", Json(std::string("iteration")));
        b.set("cpu_time", Json(cpu));
        b.set("time_unit", Json(std::string("ns")));
        benchmarks.push_back(b);
    }
    Json doc = Json::object();
    doc.set("context", Json::object());
    doc.set("benchmarks", benchmarks);
    return doc;
}

}  // namespace

TEST(CompareMicro, WithinToleranceIsOk) {
    CompareConfig cfg;
    cfg.tolerance = 0.20;
    CompareReport rep = compare_micro(micro_with({{"BM_EcdsaVerify", 100000.0}}),
                                      micro_with({{"BM_EcdsaVerify", 115000.0}}), cfg);
    ASSERT_EQ(rep.deltas.size(), 1u);
    EXPECT_EQ(rep.deltas[0].status, DeltaStatus::kOk);
    EXPECT_TRUE(rep.ok());
}

TEST(CompareMicro, CpuTimeGrowthBeyondToleranceRegresses) {
    CompareConfig cfg;
    cfg.tolerance = 0.20;
    CompareReport rep = compare_micro(micro_with({{"BM_Sha256/64", 500.0}}),
                                      micro_with({{"BM_Sha256/64", 650.0}}), cfg);
    ASSERT_EQ(rep.deltas.size(), 1u);
    EXPECT_EQ(rep.deltas[0].status, DeltaStatus::kRegressed);
    EXPECT_EQ(rep.regressions(), 1u);
}

TEST(CompareMicro, SpeedupImprovesNotRegresses) {
    CompareConfig cfg;
    cfg.tolerance = 0.20;
    CompareReport rep = compare_micro(micro_with({{"BM_EcdsaVerifyBatch/16", 2000.0}}),
                                      micro_with({{"BM_EcdsaVerifyBatch/16", 1000.0}}), cfg);
    ASSERT_EQ(rep.deltas.size(), 1u);
    EXPECT_EQ(rep.deltas[0].status, DeltaStatus::kImproved);
    EXPECT_TRUE(rep.ok());
}

TEST(CompareMicro, MissingBenchmarkIsStructuralError) {
    CompareConfig cfg;
    CompareReport rep = compare_micro(micro_with({{"BM_A", 1.0}, {"BM_B", 2.0}}),
                                      micro_with({{"BM_A", 1.0}}), cfg);
    EXPECT_EQ(rep.errors.size(), 1u);
    EXPECT_FALSE(rep.ok());
}

TEST(CompareMicro, ExtraCandidateBenchmarksIgnored) {
    CompareConfig cfg;
    CompareReport rep = compare_micro(micro_with({{"BM_A", 1.0}}),
                                      micro_with({{"BM_A", 1.0}, {"BM_New", 9.0}}), cfg);
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.deltas.size(), 1u);
}

TEST(CompareMicro, AggregateRowsSkipped) {
    // An aggregate row with a wildly different cpu_time must not gate:
    // only the matching iteration row is compared.
    Json agg = Json::object();
    agg.set("name", Json(std::string("BM_A")));
    agg.set("run_type", Json(std::string("aggregate")));
    agg.set("cpu_time", Json(9e9));
    Json benchmarks = Json::array();
    benchmarks.push_back(agg);
    Json row = Json::object();
    row.set("name", Json(std::string("BM_A")));
    row.set("run_type", Json(std::string("iteration")));
    row.set("cpu_time", Json(100.0));
    benchmarks.push_back(row);
    Json cand = Json::object();
    cand.set("benchmarks", benchmarks);
    CompareConfig cfg;
    CompareReport rep = compare_micro(micro_with({{"BM_A", 100.0}}), cand, cfg);
    ASSERT_EQ(rep.deltas.size(), 1u);
    EXPECT_EQ(rep.deltas[0].status, DeltaStatus::kOk);
}

TEST(CompareMicro, NotABenchmarkDocumentIsError) {
    CompareConfig cfg;
    CompareReport rep = compare_micro(suite_with("p", "tput_ops", 1),
                                      micro_with({{"BM_A", 1.0}}), cfg);
    EXPECT_FALSE(rep.errors.empty());
}

TEST(CompareHostReport, InformationalRowsPrintInTheirOwnUnits) {
    EXPECT_EQ(info_kind("host_ns"), InfoKind::kHostTime);
    EXPECT_EQ(info_kind("host_parallel_ns"), InfoKind::kHostTime);
    EXPECT_EQ(info_kind("host_speedup"), InfoKind::kHostRatio);
    EXPECT_EQ(info_kind("phase_e2e_p50_us"), InfoKind::kPhase);
    EXPECT_EQ(info_kind("phase_requests"), InfoKind::kPhase);

    auto row = [](const char* metric, double base, double cand) {
        MetricDelta d;
        d.point = "p";
        d.metric = metric;
        d.base_mean = base;
        d.cand_mean = cand;
        d.rel_delta = (cand - base) / base;
        return d;
    };
    const std::string out = format_host_report({
        row("phase_e2e_mean_us", 65.187, 70.0),
        row("host_ns", 2.5e6, 5e6),
        row("host_speedup", 1.5, 3.0),
        row("phase_sequence_share_pct", 13.21, 13.21),
        row("phase_requests", 3067, 3067),
    });
    // Wall-clock ns in ms; the ratio as a factor; virtual-time attribution
    // in its own unit — never divided by 1e6 into 0.00.
    EXPECT_NE(out.find("host time (wall clock"), std::string::npos) << out;
    auto line_of = [&out](const std::string& label) {
        const std::size_t at = out.find("  " + label + " ");
        return at == std::string::npos ? std::string()
                                       : out.substr(at, out.find('\n', at) - at);
    };
    EXPECT_NE(line_of("p:host_ns").find(" 2.50  "), std::string::npos) << out;
    EXPECT_NE(line_of("p:host_ns").find(" 5.00  "), std::string::npos) << out;
    EXPECT_NE(line_of("p:host_ns").find("+100.0%"), std::string::npos) << out;
    EXPECT_NE(line_of("p:host_speedup").find(" 1.50x "), std::string::npos) << out;
    EXPECT_NE(line_of("p:host_speedup").find(" 3.00x "), std::string::npos) << out;
    EXPECT_NE(line_of("p:phase_e2e_mean_us").find(" 65.187 us "), std::string::npos) << out;
    EXPECT_NE(line_of("p:phase_sequence_share_pct").find(" 13.210 % "), std::string::npos)
        << out;
    EXPECT_NE(line_of("p:phase_requests").find(" 3067.000 "), std::string::npos) << out;
    EXPECT_EQ(out.find(" 0.00 "), std::string::npos) << out;
    // Sections come in a fixed order, each once.
    const std::size_t host = out.find("host time");
    const std::size_t ratio = out.find("host ratios");
    const std::size_t phase = out.find("critical-path attribution");
    ASSERT_NE(phase, std::string::npos);
    EXPECT_LT(host, ratio);
    EXPECT_LT(ratio, phase);
    EXPECT_EQ(out.find("critical-path attribution", phase + 1), std::string::npos);

    EXPECT_EQ(format_host_report({}), "");
}
