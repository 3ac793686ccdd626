#include "scenario/scenario.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace neo::scenario {

const char* fault_kind_name(FaultKind k) {
    switch (k) {
        case FaultKind::kCrash: return "crash";
        case FaultKind::kRecover: return "recover";
        case FaultKind::kEquivocate: return "equivocate";
        case FaultKind::kHonest: return "honest";
        case FaultKind::kSilence: return "silence";
        case FaultKind::kUnsilence: return "unsilence";
        case FaultKind::kMute: return "mute";
        case FaultKind::kPartition: return "partition";
        case FaultKind::kHeal: return "heal";
        case FaultKind::kGrayLink: return "gray_link";
        case FaultKind::kClearLink: return "clear_link";
        case FaultKind::kLossBurst: return "loss_burst";
        case FaultKind::kSeqStall: return "seq_stall";
        case FaultKind::kSeqResume: return "seq_resume";
        case FaultKind::kSeqDrop: return "seq_drop";
        case FaultKind::kSeqDuplicate: return "seq_duplicate";
        case FaultKind::kSeqCorrupt: return "seq_corrupt";
        case FaultKind::kSeqStripSig: return "seq_strip_sig";
        case FaultKind::kSeqEquivocate: return "seq_equivocate";
    }
    return "?";
}

namespace {

bool contains(const std::vector<NodeId>& v, NodeId n) {
    return std::find(v.begin(), v.end(), n) != v.end();
}

void run_event(const FaultEvent& ev, Adapter& ad, const std::vector<NodeId>& replicas,
               double base_drop_rate) {
    sim::Network& net = ad.network();
    std::vector<NodeId> targets = ev.targets;
    if (targets.empty() && !replicas.empty()) targets = {replicas.back()};

    switch (ev.kind) {
        case FaultKind::kCrash:
            for (NodeId n : targets) {
                if (!ad.crash(n)) net.set_node_down(n, true);  // fail-silent fallback
            }
            break;
        case FaultKind::kRecover:
            for (NodeId n : targets) {
                if (!ad.recover(n)) net.set_node_down(n, false);
            }
            break;
        case FaultKind::kEquivocate:
            for (NodeId n : targets) ad.set_equivocate(n, true);
            break;
        case FaultKind::kHonest:
            for (NodeId n : targets) ad.set_equivocate(n, false);
            break;
        case FaultKind::kSilence:
            // Directional: the silent replica stops talking to its peers but
            // still receives (and still serves clients) — the Byzantine
            // flavour a crash cannot model.
            for (NodeId t : targets) {
                for (NodeId r : replicas) {
                    if (r != t) net.block(t, r);
                }
            }
            break;
        case FaultKind::kUnsilence:
            for (NodeId t : targets) {
                for (NodeId r : replicas) {
                    if (r != t) net.unblock(t, r);
                }
            }
            break;
        case FaultKind::kMute:
            for (NodeId t : targets) net.set_node_muted(t, true);
            break;
        case FaultKind::kPartition:
            for (NodeId a : targets) {
                for (NodeId b : replicas) {
                    if (contains(targets, b)) continue;
                    net.block(a, b);
                    net.block(b, a);
                }
            }
            break;
        case FaultKind::kHeal:
            for (NodeId a : replicas) {
                for (NodeId b : replicas) {
                    if (a != b) net.unblock(a, b);
                }
            }
            break;
        case FaultKind::kGrayLink: {
            // Asymmetric loss on every link FROM the target (receives stay
            // clean): the classic gray-failure shape detectors miss.
            sim::LinkConfig cfg = net.default_link();
            cfg.drop_rate = ev.rate;
            for (NodeId t : targets) {
                for (NodeId r : replicas) {
                    if (r != t) net.set_link(t, r, cfg);
                }
            }
            break;
        }
        case FaultKind::kClearLink:
            for (NodeId t : targets) {
                for (NodeId r : replicas) {
                    if (r != t) net.set_link(t, r, net.default_link());
                }
            }
            break;
        case FaultKind::kLossBurst: {
            net.set_global_drop_rate(ev.rate);
            sim::Time window = std::max<sim::Time>(ev.duration, 1);
            ad.simulator().at_global(ad.simulator().now() + window,
                                     [&net, base_drop_rate] {
                                         net.set_global_drop_rate(base_drop_rate);
                                     });
            break;
        }
        case FaultKind::kSeqStall:
            ad.sequencer_fault({FaultKind::kSeqStall, 0, true});
            break;
        case FaultKind::kSeqResume:
            ad.sequencer_fault({FaultKind::kSeqStall, 0, false});
            break;
        case FaultKind::kSeqDrop:
        case FaultKind::kSeqDuplicate:
        case FaultKind::kSeqCorrupt:
        case FaultKind::kSeqStripSig:
        case FaultKind::kSeqEquivocate:
            ad.sequencer_fault({ev.kind, ev.mod, true});
            break;
    }
}

}  // namespace

void apply(const Scenario& sc, Adapter& ad) {
    // Membership and the pre-fault drop rate are fixed at apply time; the
    // closures below carry plain values so the schedule is a pure function
    // of (scenario, deployment shape) — no event-order dependence.
    std::vector<NodeId> replicas = ad.replica_ids();
    double base_drop_rate = ad.network().global_drop_rate();
    for (const FaultEvent& ev : sc.events) {
        ad.simulator().at_global(ev.at, [ev, &ad, replicas, base_drop_rate] {
            run_event(ev, ad, replicas, base_drop_rate);
        });
    }
}

// ------------------------------------------------------- scenario library

namespace {
sim::Time midpoint(sim::Time t0, sim::Time horizon) { return t0 + (horizon - t0) / 2; }
}  // namespace

Scenario crash_recover(const std::vector<NodeId>& replicas, sim::Time t0, sim::Time horizon) {
    NEO_ASSERT(!replicas.empty());
    NodeId victim = replicas.back();
    Scenario sc;
    sc.name = "crash_recover";
    sc.events.push_back({t0, FaultKind::kCrash, {victim}, 0, 0.0, 0});
    sc.events.push_back({midpoint(t0, horizon), FaultKind::kRecover, {victim}, 0, 0.0, 0});
    return sc;
}

Scenario equivocating_replica(const std::vector<NodeId>& replicas, sim::Time t0) {
    NEO_ASSERT(!replicas.empty());
    Scenario sc;
    sc.name = "equivocating_replica";
    sc.events.push_back({t0, FaultKind::kEquivocate, {replicas.back()}, 0, 0.0, 0});
    sc.expect_violations = {"divergent_commit"};
    return sc;
}

Scenario silent_replica(const std::vector<NodeId>& replicas, sim::Time t0, sim::Time horizon) {
    NEO_ASSERT(!replicas.empty());
    NodeId victim = replicas.back();
    Scenario sc;
    sc.name = "silent_replica";
    sc.events.push_back({t0, FaultKind::kSilence, {victim}, 0, 0.0, 0});
    sc.events.push_back({midpoint(t0, horizon), FaultKind::kUnsilence, {victim}, 0, 0.0, 0});
    return sc;
}

Scenario minority_partition(const std::vector<NodeId>& replicas, sim::Time t0,
                            sim::Time horizon) {
    NEO_ASSERT(!replicas.empty());
    // Cut off a largest-minority island: floor((n-1)/3) replicas = f.
    std::size_t f = (replicas.size() - 1) / 3;
    std::vector<NodeId> island(replicas.end() - static_cast<std::ptrdiff_t>(std::max<std::size_t>(f, 1)),
                               replicas.end());
    Scenario sc;
    sc.name = "minority_partition";
    sc.events.push_back({t0, FaultKind::kPartition, island, 0, 0.0, 0});
    sc.events.push_back({midpoint(t0, horizon), FaultKind::kHeal, {}, 0, 0.0, 0});
    return sc;
}

Scenario gray_link(const std::vector<NodeId>& replicas, sim::Time t0, sim::Time horizon,
                   double rate) {
    NEO_ASSERT(!replicas.empty());
    NodeId victim = replicas.back();
    Scenario sc;
    sc.name = "gray_link";
    sc.events.push_back({t0, FaultKind::kGrayLink, {victim}, 0, rate, 0});
    sc.events.push_back({midpoint(t0, horizon), FaultKind::kClearLink, {victim}, 0, 0.0, 0});
    return sc;
}

Scenario loss_bursts(sim::Time t0, sim::Time period, sim::Time burst_len, double rate,
                     int bursts) {
    Scenario sc;
    sc.name = "loss_bursts";
    for (int i = 0; i < bursts; ++i) {
        sc.events.push_back({t0 + static_cast<sim::Time>(i) * period, FaultKind::kLossBurst,
                             {}, burst_len, rate, 0});
    }
    return sc;
}

Scenario seq_stall(sim::Time t0) {
    Scenario sc;
    sc.name = "seq_stall";
    sc.events.push_back({t0, FaultKind::kSeqStall, {}, 0, 0.0, 0});
    return sc;
}

Scenario seq_skips(sim::Time t0, std::uint32_t mod) {
    Scenario sc;
    sc.name = "seq_skips";
    sc.events.push_back({t0, FaultKind::kSeqDrop, {}, 0, 0.0, mod});
    return sc;
}

Scenario seq_unsigned(sim::Time t0, std::uint32_t mod) {
    Scenario sc;
    sc.name = "seq_unsigned";
    sc.events.push_back({t0, FaultKind::kSeqStripSig, {}, 0, 0.0, mod});
    return sc;
}

Scenario seq_equivocate(sim::Time t0, std::uint32_t mod) {
    Scenario sc;
    sc.name = "seq_equivocate";
    sc.events.push_back({t0, FaultKind::kSeqEquivocate, {}, 0, 0.0, mod});
    return sc;
}

std::vector<Scenario> standard_suite(const std::vector<NodeId>& replicas, sim::Time horizon) {
    sim::Time t0 = horizon / 4;
    return {
        crash_recover(replicas, t0, horizon),
        equivocating_replica(replicas, t0),
        silent_replica(replicas, t0, horizon),
        minority_partition(replicas, t0, horizon),
        gray_link(replicas, t0, horizon, 0.3),
        loss_bursts(t0, (horizon - t0) / 4, (horizon - t0) / 16, 0.6, 3),
        seq_skips(t0, 64),
        seq_unsigned(t0, 2),
        seq_equivocate(t0, 32),
    };
}

Scenario fuzz(std::uint64_t seed, const std::vector<NodeId>& replicas, sim::Time horizon) {
    NEO_ASSERT(!replicas.empty());
    // Counter-based stream: every draw is a pure function of (seed, i), so
    // the scenario is reproducible from its seed alone (logged by the
    // fuzzer driver).
    StreamRng rng(0x5ce7a410u, seed);
    Scenario sc;
    sc.name = "fuzz_" + std::to_string(seed);
    sc.violations_required = false;
    const sim::Time t0 = horizon / 4;
    const sim::Time span = horizon - t0;
    const std::size_t f = std::max<std::size_t>((replicas.size() - 1) / 3, 1);

    // At most f concurrently-faulty replicas: draw a fixed victim pool of
    // size <= f and aim every node fault at it.
    std::vector<NodeId> pool;
    for (std::size_t i = 0; i < f; ++i) {
        NodeId v = replicas[rng.uniform(replicas.size())];
        if (std::find(pool.begin(), pool.end(), v) == pool.end()) pool.push_back(v);
    }

    int n_faults = 1 + static_cast<int>(rng.uniform(4));
    for (int i = 0; i < n_faults; ++i) {
        sim::Time at = t0 + static_cast<sim::Time>(rng.uniform(static_cast<std::uint64_t>(span / 2)));
        sim::Time heal_at = at + span / 4;
        NodeId victim = pool[rng.uniform(pool.size())];
        switch (rng.uniform(6)) {
            case 0:  // crash + recover
                sc.events.push_back({at, FaultKind::kCrash, {victim}, 0, 0.0, 0});
                sc.events.push_back({heal_at, FaultKind::kRecover, {victim}, 0, 0.0, 0});
                break;
            case 1:  // equivocation (auditor must catch it)
                sc.events.push_back({at, FaultKind::kEquivocate, {victim}, 0, 0.0, 0});
                sc.expect_violations = {"divergent_commit"};
                break;
            case 2:  // silence window
                sc.events.push_back({at, FaultKind::kSilence, {victim}, 0, 0.0, 0});
                sc.events.push_back({heal_at, FaultKind::kUnsilence, {victim}, 0, 0.0, 0});
                break;
            case 3: {  // gray link
                double rate = 0.1 + 0.4 * rng.real();
                sc.events.push_back({at, FaultKind::kGrayLink, {victim}, 0, rate, 0});
                sc.events.push_back({heal_at, FaultKind::kClearLink, {victim}, 0, 0.0, 0});
                break;
            }
            case 4: {  // loss burst
                double rate = 0.2 + 0.5 * rng.real();
                sc.events.push_back({at, FaultKind::kLossBurst, {}, span / 16, rate, 0});
                break;
            }
            case 5: {  // sequencer misbehaviour (no-op for sequencer-less protocols)
                FaultKind kinds[] = {FaultKind::kSeqDrop, FaultKind::kSeqDuplicate,
                                     FaultKind::kSeqEquivocate, FaultKind::kSeqStripSig};
                std::uint32_t mod = 16u << rng.uniform(4);  // 16..128
                sc.events.push_back({at, kinds[rng.uniform(4)], {}, 0, 0.0, mod});
                break;
            }
        }
    }
    std::sort(sc.events.begin(), sc.events.end(),
              [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
    return sc;
}

}  // namespace neo::scenario
