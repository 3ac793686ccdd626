// Composable Byzantine scenario engine.
//
// A Scenario is a declarative fault schedule — (fault kind x virtual-time
// point x target set) triples — applied to any running deployment through
// the Adapter interface. The engine schedules every fault as a GLOBAL
// simulator event (Simulator::at_global), the only context allowed to
// mutate cross-node shared state (network blocks, node-down flags) under
// the conservative PDES engine, so same-seed scenario runs are
// byte-identical across --sim-threads values.
//
// Three fault families (docs/SCENARIOS.md):
//  - Byzantine processes: equivocating replicas (divergent audited commit
//    digests + poisoned client replies), selectively-silent replicas
//    (directional network blocks toward other replicas), muted replicas
//    (every message ignored, client requests included), and a malicious
//    sequencer (scenario::ByzSequencer — drops/duplicates/corrupts/
//    signature-strips sequenced packets).
//  - Network pathologies: symmetric partitions, asymmetric gray links
//    (per-direction loss), correlated loss bursts (windowed global drop
//    rate).
//  - Recovery lifecycle: full crash (volatile-state wipe) and recover
//    (checkpoint install + state transfer) where the protocol supports it
//    (NeoBFT); protocols without a recovery path get a fail-silent window
//    instead (the engine downgrades automatically).
//
// Expectations ride on the scenario: `expect_violations` names the safety
// invariants the deployment's obs::Auditor MUST flag (an equivocation run
// that produces no divergent_commit is a detector bug), every other
// violation is a protocol bug; `min_commits_per_client` is the liveness
// floor every honest client must reach by the end of the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace neo::scenario {

enum class FaultKind : std::uint8_t {
    // Node lifecycle / Byzantine execution.
    kCrash = 0,      // full crash (state wipe); fallback: fail-silent (node down)
    kRecover,        // recovery protocol; fallback: node back up
    kEquivocate,     // targets report divergent commit digests from here on
    kHonest,         // stop equivocating
    kSilence,        // targets stop sending to other REPLICAS (clients still served)
    kUnsilence,
    kMute,           // targets receive (and pay for) every message but handle nothing
    // Network pathologies.
    kPartition,      // targets <-> rest-of-replicas cut, both directions
    kHeal,           // remove every replica<->replica block
    kGrayLink,       // asymmetric loss: packets FROM each target drop at `rate`
    kClearLink,      // restore default links on the target rows
    kLossBurst,      // global drop `rate` for [at, at+duration)
    // Malicious sequencer (no-op where the protocol has no sequencer).
    kSeqStall,       // first group's home sequencer accepts but emits nothing
    kSeqResume,
    kSeqDrop,        // drop sequenced packets with seq % mod == 0 (skipped seqnums)
    kSeqDuplicate,   // emit those packets twice
    kSeqCorrupt,     // flip a byte in those packets (receivers must reject)
    kSeqStripSig,    // clear the PK signature on those packets (unsigned stream)
    kSeqEquivocate,  // corrupt those packets for half the receivers only
};

const char* fault_kind_name(FaultKind k);

/// One scheduled fault. `targets` empty = the engine picks a default
/// (first replica for node faults; the non-empty set is required for
/// partitions). `duration`/`rate`/`mod` are fault-family parameters.
struct FaultEvent {
    sim::Time at = 0;
    FaultKind kind = FaultKind::kCrash;
    std::vector<NodeId> targets;
    sim::Time duration = 0;   // kLossBurst window
    double rate = 0.0;        // kGrayLink / kLossBurst drop probability
    std::uint32_t mod = 0;    // sequencer faults: apply when seq % mod == 0
};

struct Scenario {
    std::string name;
    std::vector<FaultEvent> events;
    /// Safety invariants the auditor MUST flag (exact names, e.g.
    /// "divergent_commit"). Violations outside this set fail the run.
    std::vector<std::string> expect_violations;
    /// When false (fuzzer mode), expect_violations are merely ALLOWED —
    /// still not required — because a randomly-composed fault (e.g. an
    /// equivocator crashed an instant later) may legitimately never trip
    /// its detector. Curated scenarios keep the strict detector check.
    bool violations_required = true;
    /// Liveness floor: every client must commit at least this many
    /// requests by the end of the run.
    std::uint64_t min_commits_per_client = 1;
};

/// What a deployment exposes to the engine. Network-level faults need only
/// simulator()/network()/replica_ids(); the lifecycle and Byzantine hooks
/// default to "unsupported" and the engine degrades (crash -> fail-silent
/// window, sequencer faults -> no-op).
class Adapter {
  public:
    virtual ~Adapter() = default;
    virtual sim::Simulator& simulator() = 0;
    virtual sim::Network& network() = 0;
    virtual std::vector<NodeId> replica_ids() const = 0;

    /// Full crash-recover lifecycle (state wipe / checkpoint install).
    virtual bool crash(NodeId) { return false; }
    virtual bool recover(NodeId) { return false; }
    /// Byzantine execution digests (and poisoned replies where supported).
    virtual bool set_equivocate(NodeId, bool) { return false; }

    struct SeqFault {
        FaultKind kind = FaultKind::kSeqStall;
        std::uint32_t mod = 0;
        bool on = true;
    };
    virtual bool sequencer_fault(const SeqFault&) { return false; }
};

/// Schedules every event of `sc` onto `ad.simulator()` as global events.
/// Call from setup (before run); the Adapter must outlive the run.
void apply(const Scenario& sc, Adapter& ad);

// ------------------------------------------------------- scenario library

/// Canonical scenarios parameterised by the replica set. `t0` staggers the
/// first fault; faults are spaced so recovery has room inside `horizon`.
Scenario crash_recover(const std::vector<NodeId>& replicas, sim::Time t0, sim::Time horizon);
Scenario equivocating_replica(const std::vector<NodeId>& replicas, sim::Time t0);
Scenario silent_replica(const std::vector<NodeId>& replicas, sim::Time t0, sim::Time horizon);
Scenario minority_partition(const std::vector<NodeId>& replicas, sim::Time t0,
                            sim::Time horizon);
Scenario gray_link(const std::vector<NodeId>& replicas, sim::Time t0, sim::Time horizon,
                   double rate);
Scenario loss_bursts(sim::Time t0, sim::Time period, sim::Time burst_len, double rate,
                     int bursts);
/// The §6.4 failover kill: the first group's home sequencer stalls at `t0`
/// and the config service fails the group over to a standby switch.
Scenario seq_stall(sim::Time t0);
Scenario seq_skips(sim::Time t0, std::uint32_t mod);
Scenario seq_unsigned(sim::Time t0, std::uint32_t mod);
Scenario seq_equivocate(sim::Time t0, std::uint32_t mod);

/// All canonical scenarios for a deployment shape (used by the matrix
/// sweep and the tsan matrix test).
std::vector<Scenario> standard_suite(const std::vector<NodeId>& replicas, sim::Time horizon);

/// Seed-randomised scenario for the fuzzer: composes 1-4 faults (kinds,
/// times, targets, rates all drawn from a counter-based stream on `seed`),
/// always bounded so at most f replicas are faulty at once and every
/// windowed fault heals before the horizon. Deterministic per seed.
Scenario fuzz(std::uint64_t seed, const std::vector<NodeId>& replicas, sim::Time horizon);

}  // namespace neo::scenario
