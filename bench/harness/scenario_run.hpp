// Scenario driver: runs a declarative fault schedule (src/scenario) over a
// live deployment and checks BOTH safety and liveness at the end.
//
// run_closed_loop() aborts on any auditor violation — correct for perf
// figures, where a violation means the numbers are garbage. Scenario runs
// are different: a Byzantine scenario EXPECTS specific violations (an
// equivocation run that trips no divergent_commit is a detector bug), so
// the driver compares the auditor's findings against the scenario's
// expectation set instead of asserting emptiness, and adds the liveness
// floor (every client commits >= min_commits_per_client) that perf runs
// never needed.
#pragma once

#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "scenario/scenario.hpp"

namespace neo::bench {

/// Deterministic result of one scenario run: every field derives from the
/// simulation's event stream, so to_string() is byte-identical across
/// --sim-threads values for the same (deployment params, scenario).
struct ScenarioOutcome {
    std::string scenario;
    bool ok = false;
    /// Violation names the auditor flagged, in finalize order (duplicates
    /// collapsed), and how they compare against the expectation set.
    std::vector<std::string> violations;
    std::vector<std::string> unexpected;
    std::vector<std::string> missing;
    /// Per-client committed-request counts over the run.
    std::vector<std::uint64_t> client_completed;
    std::uint64_t total_completed = 0;
    std::uint64_t min_client_completed = 0;

    /// One-line summary (stable field order) for logs and the determinism
    /// test's byte comparison.
    std::string to_string() const;
};

/// System `s` built for the whole fault surface: the Neo systems get the
/// Byzantine sequencer switch (sequencer faults) and checkpointing (the
/// crash-recover lifecycle's checkpoint fetch); every other system is
/// make_system(s, p).
std::unique_ptr<Deployment> make_scenario_system(System s, const CommonParams& p);

/// Applies `sc` to `d`, drives every client closed-loop for `duration` of
/// virtual time, finalizes the auditor and evaluates the scenario's
/// expectations. The deployment must be freshly built (the auditor and
/// client counters start at zero).
ScenarioOutcome run_scenario(Deployment& d, const scenario::Scenario& sc, const OpGen& ops,
                             sim::Time duration);

}  // namespace neo::bench
