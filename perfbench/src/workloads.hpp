// The benchmark's workloads and one iteration of each: build a deployment
// through the public harness factories, drive it (closed loop through
// bench::run_closed_loop, or an open-loop generator on Simulator::run_until),
// drain, audit, check every reply and tear down, recording host time per
// step and the program's own counters. Every workload runs on the serial
// engine (one simulator partition): on a shared 4-core host two partitions
// made ycsb-2pc slower and, under contention, up to twice as slow, while
// the simulated results are identical for any partition count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "derive.hpp"
#include "harness/harness.hpp"
#include "host_spans.hpp"

namespace perfbench {

enum class Loop { kClosed, kOpen };
enum class AppKind { kEcho, kTxn };

struct WorkloadSpec {
    const char* name;
    Loop loop;
    AppKind app;
    neo::bench::NeoVariant variant;
    neo::crypto::CryptoMode crypto;
    int clients;
    int shards;  // 0 = one NeoBFT group (make_neobft), else make_sharded_neobft
    neo::sim::Time warmup;
    neo::sim::Time measure;
    neo::sim::Time drain;
    double drop_rate = 0;
    double open_rate_per_s = 0;  // open loop: requests due per virtual second
    neo::sim::Time fault_at = 0;  // > 0: active sequencer goes down at this time
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Ops each client issued, captured in a traced iteration so ycsb-2pc's
/// transactions can be replayed through a standalone KvStateMachine.
using OpCapture = std::vector<std::vector<neo::Bytes>>;

/// What one iteration measured. Host seconds vary run to run; everything
/// in `virt` and `counts` is a pure function of (workload, seed) and is
/// compared across iterations and between traced and untraced runs.
struct Iteration {
    double setup_s = 0;     // make_* factory: keys, QTables, preload
    double run_s = 0;       // run_closed_loop, or the open-loop run + span analysis
    double engine_s = 0;    // Simulator::run_until share of run_s, plus the drain
    double critical_path_s = 0;  // span filtering + critical-path analysis
    double drain_s = 0;
    double audit_s = 0;     // Auditor::finalize + report
    double teardown_s = 0;  // deployment destructor
    HostSpans::HotTotals opgen;  // traced only
    HostSpans::HotTotals exec;   // traced only
    std::uint64_t span_events = 0;  // program span events (traced only)

    OpTally tally;
    double gen_late_us = 0;           // open loop: mean wait for a free client
    std::uint64_t backlog_end = 0;    // open loop: queued requests at window end
    std::vector<double> lat_us;       // latency samples of the window, sorted
    double outage_ns = 0;             // time to the first fresh commit
    std::uint64_t window_commits = 0;
    std::map<std::string, double> virt;
    std::map<std::string, double> counts;
    std::vector<std::string> errors;

    double host_run_total_s() const { return run_s + drain_s + audit_s + teardown_s; }
};

Iteration run_iteration(const WorkloadSpec& w, std::uint64_t seed, HostSpans& spans,
                        OpCapture* capture);

/// End-to-end virtual metrics pooled over several iterations of distinct
/// seeds: latency samples, commits and op tallies are pooled; the outage is
/// the mean over the iterations.
struct PooledVirt {
    double tput_kops = 0;
    double p50_us = 0;
    double p99_us = 0;
    double outage_ms = 0;
    OpTally tally;
    std::size_t samples = 0;
};
PooledVirt pool_virt(const WorkloadSpec& w, const std::vector<const Iteration*>& its);

/// ycsb-2pc's StateMachine::execute cost: replays `ops` (client-major)
/// through a KvStateMachine preloaded like the deployment's replicas.
/// Returns {ops executed, host ns}; replies that fail to decode are errors.
struct ReplayResult {
    std::uint64_t ops = 0;
    std::int64_t ns = 0;
    std::uint64_t bad_replies = 0;
};
ReplayResult replay_txns(const OpCapture& ops, std::uint64_t seed);

/// Host ns of one public NodeCrypto call in `mode` (median of repeats).
/// Each signature is verified by `verifiers` nodes of one TrustRoot, as the
/// replicas of a group verify every broadcast signature.
struct CryptoUnitCost {
    double sign_ns = 0;
    double verify_ns = 0;
    double mac_ns = 0;
    double hash_ns = 0;
    bool verified_all = true;  // every genuine signature verified
};
CryptoUnitCost time_node_crypto(neo::crypto::CryptoMode mode, std::uint64_t seed, int verifiers);

}  // namespace perfbench
