// Repo benchmark: entry point.
//
//   neo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats one workload (fresh deployment, same seed) until --seconds of host
// time have passed and reports medians. --trace 0 prints the end-to-end
// metrics; --trace 1 alternates untraced and traced iterations, checks that
// both simulated the same thing, and prints the per-layer metrics.
// The last line of stdout is one JSON object; the exit code is nonzero when
// any output check failed.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "derive.hpp"
#include "host_spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// Iteration i runs seed * kSubSeeds + i % kSubSeeds: the virtual metrics
// pool the first kSubSeeds iterations (distinct deployments), later ones
// repeat them and must reproduce them exactly.
constexpr int kSubSeeds = 4;
constexpr int kMaxIterations = 200;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr, "neo_perfbench: %s\n", why);
    std::fprintf(stderr,
                 "usage: neo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                 "workloads:");
    for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        try {
            if (k == "--workload") {
                a.workload = v;
            } else if (k == "--seed") {
                a.seed = std::stoull(v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
            } else if (k == "--trace") {
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else {
                usage(("unknown option " + k).c_str());
            }
        } catch (const std::exception&) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0)) usage("--seconds must be positive");
    return a;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t iteration) {
    return seed * kSubSeeds + iteration % kSubSeeds;
}

/// Calls step(i) for i = 0, 1, ... until `budget_s` of host time has
/// passed and at least `min_steps` steps ran.
template <typename F>
void repeat_for(double budget_s, std::size_t min_steps, F step) {
    const std::int64_t t0 = host_ns();
    for (std::size_t i = 0; i < min_steps ||
                            (static_cast<double>(host_ns() - t0) * 1e-9 < budget_s &&
                             i < static_cast<std::size_t>(kMaxIterations));
         ++i) {
        step(i);
    }
}

Iteration iterate(const WorkloadSpec& w, std::uint64_t seed, std::size_t i, HostSpans& spans,
                  OpCapture* capture) {
    spans.set_iteration(static_cast<int>(i));
    Iteration it = run_iteration(w, sub_seed(seed, i), spans, capture);
    // Hand freed pages back, so every iteration starts from the same heap
    // and the peak RSS is one iteration's, not the fragmentation of however
    // many iterations the host managed.
    malloc_trim(0);
    return it;
}

template <typename F>
double median_of(const std::vector<Iteration>& its, F f) {
    std::vector<double> v;
    for (const Iteration& it : its) v.push_back(f(it));
    return median(v);
}

/// First key whose value differs between two deterministic maps, or "".
std::string first_difference(const std::map<std::string, double>& a,
                             const std::map<std::string, double>& b) {
    for (const auto& [k, v] : a) {
        auto it = b.find(k);
        if (it == b.end()) return k + " (missing)";
        if (it->second != v) return k;
    }
    for (const auto& [k, v] : b) {
        if (!a.contains(k)) return k + " (missing)";
    }
    return "";
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void print_result(bool correct, const OpTally& total, const std::vector<Metric>& ms) {
    std::printf("%-28s %18s  %s\n", "metric", "value", "unit");
    for (const Metric& m : ms) {
        std::printf("%-28s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.errors()));
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    ms[i].name.c_str(), v, ms[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    const WorkloadSpec* wp = find_workload(args.workload);
    if (wp == nullptr) usage(("unknown workload " + args.workload).c_str());
    const WorkloadSpec& w = *wp;

    std::vector<std::string> errors;
    HostSpans spans;
    OpCapture capture;

    std::vector<Iteration> plain;
    std::vector<Iteration> traced;
    if (!args.trace) {
        repeat_for(args.seconds, kSubSeeds, [&](std::size_t i) {
            plain.push_back(iterate(w, args.seed, i, spans, nullptr));
        });
    } else {
        // Untraced and traced iterations of the same seed alternate, so a
        // drift in host speed hits both sides of the overhead comparison.
        repeat_for(args.seconds, 2, [&](std::size_t i) {
            spans.set_enabled(false);
            plain.push_back(iterate(w, args.seed, i, spans, nullptr));
            spans.set_enabled(true);
            traced.push_back(iterate(w, args.seed, i, spans, i == 0 ? &capture : nullptr));
        });
    }

    // ---- checks: outputs, determinism across iterations, and the guard
    // that a traced run simulates exactly what an untraced one does.
    OpTally total;
    auto check_all = [&](const std::vector<Iteration>& its, const char* kind) {
        for (std::size_t i = 0; i < its.size(); ++i) {
            total += its[i].tally;
            if (!its[i].tally.consistent()) errors.push_back("op accounting does not add up");
            for (const std::string& e : its[i].errors) {
                errors.push_back(std::string(kind) + " iteration " + std::to_string(i) + ": " + e);
            }
            const Iteration& same_seed = its[i % kSubSeeds];
            std::string diff = first_difference(same_seed.virt, its[i].virt);
            if (diff.empty()) diff = first_difference(same_seed.counts, its[i].counts);
            if (!diff.empty()) {
                errors.push_back(std::string(kind) + " iteration " + std::to_string(i) +
                                 " does not reproduce iteration " +
                                 std::to_string(i % kSubSeeds) + " at " + diff);
            }
        }
    };
    check_all(plain, "untraced");
    check_all(traced, "traced");
    for (std::size_t i = 0; i < std::min(plain.size(), traced.size()); ++i) {
        std::string diff = first_difference(plain[i].virt, traced[i].virt);
        if (diff.empty()) diff = first_difference(plain[i].counts, traced[i].counts);
        if (!diff.empty()) {
            errors.push_back("traced iteration " + std::to_string(i) +
                             " simulated differently from the untraced one at " + diff);
        }
    }

    const Iteration& ref = plain[0];
    const auto& v = ref.virt;
    const auto& c = ref.counts;
    const std::uint64_t ops = ref.tally.committed;

    std::printf("workload %s  seed %llu  iterations %zu untraced, %zu traced\n", w.name,
                static_cast<unsigned long long>(args.seed), plain.size(), traced.size());
    std::printf("iteration 0: %llu ops attempted, %llu committed, %llu aborted, op_fail_frac %.6f\n",
                static_cast<unsigned long long>(ref.tally.attempted),
                static_cast<unsigned long long>(ref.tally.committed),
                static_cast<unsigned long long>(ref.tally.aborted), ref.tally.fail_frac());
    std::printf("iteration 0: %.0f latency samples (highest supported percentile p%g), backlog at "
                "window end %.0f\n",
                v.at("latency_samples"), v.at("highest_percentile"), v.at("backlog_end"));

    std::vector<Metric> ms;
    if (!args.trace) {
        std::vector<const Iteration*> first;
        for (std::size_t i = 0; i < kSubSeeds; ++i) first.push_back(&plain[i]);
        const PooledVirt pv = pool_virt(w, first);
        if (!percentile_supported(pv.samples, 990)) {
            errors.push_back("only " + std::to_string(pv.samples) + " latency samples: p99 unsupported");
        }
        std::printf("pooled over %d seeds: %zu latency samples (highest supported percentile p%g), "
                    "op_fail_frac %.6f\n",
                    kSubSeeds, pv.samples, highest_supported_percentile(pv.samples) / 10.0,
                    pv.tally.fail_frac());
        ms = {
            {"setup_s", median_of(plain, [](const Iteration& i) { return i.setup_s; }), "s"},
            {"sim_ops_per_s", median_of(plain, [](const Iteration& i) {
                 return static_cast<double>(i.tally.committed) / i.host_run_total_s();
             }), "1/s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"virt_tput_kops", pv.tput_kops, "kops"},
            {"virt_p50_us", pv.p50_us, "us"},
            {"virt_p99_us", pv.p99_us, "us"},
            {"virt_outage_ms", pv.outage_ms, "ms"},
            {"op_ok_frac", pv.tally.ok_frac(), "ratio"},
        };
    } else {
        // Host-side layer figures are medians over the traced iterations.
        const double run_self_s = median_of(traced, [](const Iteration& i) {
            return i.engine_s - static_cast<double>(i.opgen.ns + i.exec.ns) * 1e-9;
        });
        const double events = c.at("sim.executed_events");
        // Estimated host crypto time: every signature the deployment makes
        // (replicas' meters, sequencer signatures, one per client request)
        // and the replicas' verifies, MACs and hashes, at the unit costs of
        // the public NodeCrypto calls measured here.
        const int group_size = static_cast<int>(c.at("neobft.replicas")) / std::max(1, w.shards);
        CryptoUnitCost cu;
        {
            SpanScope s(spans, "crypto.NodeCrypto");
            cu = time_node_crypto(w.crypto, args.seed, group_size);
        }
        if (!cu.verified_all) errors.push_back("NodeCrypto rejected a genuine signature");
        const double all_signs = c.at("crypto.signs") + c.at("aom.signatures_generated") +
                                 static_cast<double>(ref.tally.attempted);
        const double crypto_est_ns = all_signs * cu.sign_ns +
                                     c.at("crypto.verifies") * cu.verify_ns +
                                     c.at("crypto.macs") * cu.mac_ns +
                                     c.at("crypto.hashes") * cu.hash_ns;
        double exec_ns_per_op = median_of(traced, [](const Iteration& i) {
            return per_op(static_cast<double>(i.exec.ns), i.exec.calls);
        });
        if (w.app == AppKind::kTxn) {
            SpanScope s(spans, "apps.KvStateMachine.replay");
            const ReplayResult rr = replay_txns(capture, sub_seed(args.seed, 0));
            if (rr.bad_replies > 0) errors.push_back("replayed txn replies failed to decode");
            exec_ns_per_op = per_op(static_cast<double>(rr.ns), rr.ops);
        }
        const double plain_s = median_of(plain, [](const Iteration& i) { return i.host_run_total_s(); });
        const double traced_s =
            median_of(traced, [](const Iteration& i) { return i.host_run_total_s(); });
        const bool txn = c.at("txn.started") > 0;
        ms = {
            {"sim.events_per_op", per_op(events, ops), "count"},
            {"sim.ns_per_event", per_op(run_self_s * 1e9, static_cast<std::uint64_t>(events)), "ns"},
            {"sim.run_self_s", run_self_s, "s"},
            {"net.packets_per_op", per_op(c.at("net.packets_sent"), ops), "count"},
            {"net.bytes_per_op", per_op(c.at("net.bytes_sent"), ops), "B"},
            {"net.drops_per_kop", per_kop(c.at("net.packets_dropped"), ops), "count"},
            {"net.transit_us_per_op", per_op(v.at("net_transit_us"), ref.window_commits), "us"},
            {"net.cpu_us_per_op", per_op(v.at("net_cpu_us"), ref.window_commits), "us"},
            {"net.queue_us_per_op", per_op(v.at("net_queue_us"), ref.window_commits), "us"},
            {"aom.sequenced_per_op", per_op(c.at("aom.sequenced"), ops), "count"},
            {"aom.sign_ratio",
             ratio(c.at("aom.signatures_generated"),
                   c.at("aom.signatures_generated") + c.at("aom.signatures_skipped")),
             "ratio"},
            {"aom.drop_notices_per_kop", per_kop(c.at("aom.drop_notices"), ops), "count"},
            {"aom.rejected_per_kop", per_kop(c.at("aom.rejected"), ops), "count"},
            {"aom.failovers", c.at("aom.failovers"), "count"},
            {"neobft.exec_per_commit",
             per_op(c.at("neobft.executed"), ops * static_cast<std::uint64_t>(group_size)), "ratio"},
            {"neobft.rollbacks_per_kop", per_kop(c.at("neobft.rollbacks"), ops), "count"},
            {"neobft.gap_agreements_per_kop", per_kop(c.at("neobft.gap_agreements"), ops), "count"},
            {"neobft.view_changes", c.at("neobft.view_changes"), "count"},
            {"neobft.syncs_per_kop", per_kop(c.at("neobft.syncs"), ops), "count"},
            {"crypto.signs_per_op", per_op(c.at("crypto.signs"), ops), "count"},
            {"crypto.verifies_per_op", per_op(c.at("crypto.verifies"), ops), "count"},
            {"crypto.macs_per_op", per_op(c.at("crypto.macs"), ops), "count"},
            {"crypto.hashes_per_op", per_op(c.at("crypto.hashes"), ops), "count"},
            {"crypto.sign_ns", cu.sign_ns, "ns"},
            {"crypto.verify_ns", cu.verify_ns, "ns"},
            {"crypto.mac_ns", cu.mac_ns, "ns"},
            {"crypto.hash_ns", cu.hash_ns, "ns"},
            {"crypto.est_share", ratio(crypto_est_ns, run_self_s * 1e9), "ratio"},
            {"apps.exec_ns_per_op", exec_ns_per_op, "ns"},
            {"apps.undo_per_kop", per_kop(c.at("apps.undos"), ops), "count"},
            {"apps.txn_commit_ratio",
             txn ? ratio(c.at("txn.committed"), c.at("txn.committed") + c.at("txn.aborted"))
                 : ratio(static_cast<double>(ref.tally.committed),
                         static_cast<double>(ref.tally.attempted)),
             "ratio"},
            {"apps.cross_shard_frac", txn ? ratio(c.at("txn.cross_shard"), c.at("txn.started")) : 0.0,
             "ratio"},
            {"harness.opgen_ns_per_op", median_of(traced, [](const Iteration& i) {
                 return per_op(static_cast<double>(i.opgen.ns), i.opgen.calls);
             }), "ns"},
            {"harness.teardown_s", median_of(traced, [](const Iteration& i) { return i.teardown_s; }), "s"},
            {"harness.gen_late_us", v.at("gen_late_us"), "us"},
            {"harness.backlog_end", v.at("backlog_end"), "count"},
            {"harness.latency_samples", v.at("latency_samples"), "count"},
            {"obs.spans_per_op",
             per_op(static_cast<double>(traced[0].span_events), ops), "count"},
            {"obs.critical_path_s",
             median_of(traced, [](const Iteration& i) { return i.critical_path_s; }), "s"},
            {"obs.audit_s", median_of(traced, [](const Iteration& i) { return i.audit_s; }), "s"},
            {"obs.trace_overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%"},
        };

        // Keep the spans for inspection: .bench_out/ under the working dir.
        std::error_code ec;
        std::filesystem::create_directories(".bench_out", ec);
        const std::string path = ".bench_out/spans-" + std::string(w.name) + "-s" +
                                 std::to_string(args.seed) + ".json";
        const std::string header = "{\"workload\":\"" + std::string(w.name) +
                                   "\",\"seed\":" + std::to_string(args.seed) + "}";
        if (!spans.write_json(path, header)) {
            std::fprintf(stderr, "neo_perfbench: cannot write %s\n", path.c_str());
        } else {
            std::printf("spans written to %s\n", path.c_str());
        }
    }

    for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    const bool correct = errors.empty() && total.errors() == 0;
    print_result(correct, total, ms);
    return correct ? 0 : 1;
}
