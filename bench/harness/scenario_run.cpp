#include "harness/scenario_run.hpp"

#include <algorithm>
#include <cstdio>

namespace neo::bench {

std::unique_ptr<Deployment> make_scenario_system(System s, const CommonParams& p) {
    std::optional<NeoVariant> variant = neo_variant(s);
    if (!variant) return make_system(s, p);
    NeoParams np;
    static_cast<CommonParams&>(np) = p;
    np.variant = *variant;
    np.byz_sequencer = true;
    np.checkpoint_interval = 128;  // must be a multiple of sync_interval
    return make_neobft(np);
}

std::string ScenarioOutcome::to_string() const {
    std::string s = scenario + ": " + (ok ? "ok" : "FAIL");
    s += " violations=[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
        if (i) s += ",";
        s += violations[i];
    }
    s += "] unexpected=[";
    for (std::size_t i = 0; i < unexpected.size(); ++i) {
        if (i) s += ",";
        s += unexpected[i];
    }
    s += "] missing=[";
    for (std::size_t i = 0; i < missing.size(); ++i) {
        if (i) s += ",";
        s += missing[i];
    }
    s += "] completed=" + std::to_string(total_completed);
    s += " min_client=" + std::to_string(min_client_completed);
    s += " per_client=[";
    for (std::size_t i = 0; i < client_completed.size(); ++i) {
        if (i) s += ",";
        s += std::to_string(client_completed[i]);
    }
    s += "]";
    return s;
}

ScenarioOutcome run_scenario(Deployment& d, const scenario::Scenario& sc, const OpGen& ops,
                             sim::Time duration) {
    sim::Simulator& sim = d.simulator();
    const sim::Time deadline = sim.now() + duration;

    scenario::apply(sc, d);

    // Per-client slots only (a done callback runs on that client's
    // partition); merged after the run.
    const std::size_t nclients = static_cast<std::size_t>(d.n_clients());
    auto completed = std::make_shared<std::vector<std::uint64_t>>(nclients, 0);
    start_closed_loop(d, ops, deadline, [completed](int c, sim::Time, sim::Time) {
        ++(*completed)[static_cast<std::size_t>(c)];
    });

    sim.run_until(deadline);

    ScenarioOutcome out;
    out.scenario = sc.name;
    out.client_completed = *completed;
    out.min_client_completed = nclients ? ~0ull : 0;
    for (std::uint64_t n : out.client_completed) {
        out.total_completed += n;
        out.min_client_completed = std::min(out.min_client_completed, n);
    }

    obs::Auditor& aud = d.auditor();
    aud.finalize();
    // Liveness floor rides on the auditor AFTER finalize (finalize clears
    // the violation list): every client must have reached the scenario's
    // commit floor by the deadline.
    for (std::size_t c = 0; c < nclients; ++c) {
        aud.expect_client_commits(static_cast<NodeId>(c), out.client_completed[c],
                                  sc.min_commits_per_client, deadline);
    }

    // Names in first-appearance order, duplicates collapsed.
    for (const auto& v : aud.violations()) {
        std::string name = v.invariant;
        if (std::find(out.violations.begin(), out.violations.end(), name) ==
            out.violations.end()) {
            out.violations.push_back(name);
        }
    }
    for (const std::string& name : out.violations) {
        bool expected = name == "liveness" ||
                        std::find(sc.expect_violations.begin(), sc.expect_violations.end(),
                                  name) != sc.expect_violations.end();
        if (!expected) out.unexpected.push_back(name);
    }
    if (sc.violations_required) {
        for (const std::string& name : sc.expect_violations) {
            if (std::find(out.violations.begin(), out.violations.end(), name) ==
                out.violations.end()) {
                out.missing.push_back(name);
            }
        }
    }

    bool live = std::find(out.violations.begin(), out.violations.end(), "liveness") ==
                out.violations.end();
    out.ok = out.unexpected.empty() && out.missing.empty() && live;
    if (!out.ok) {
        for (const auto& v : aud.violations()) {
            std::fprintf(stderr, "scenario %s: %s\n", sc.name.c_str(), v.to_string().c_str());
        }
    }
    return out;
}

}  // namespace neo::bench
