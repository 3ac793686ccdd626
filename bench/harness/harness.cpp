#include "harness.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "aom/config_service.hpp"
#include "baselines/hotstuff.hpp"
#include "baselines/minbft.hpp"
#include "baselines/pbft.hpp"
#include "baselines/zyzzyva.hpp"
#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "harness/bench_json.hpp"
#include "harness/runner.hpp"
#include "neobft/client.hpp"
#include "neobft/replica.hpp"
#include "obs/critical_path.hpp"
#include "scenario/byz_sequencer.hpp"

namespace neo::bench {

namespace {
constexpr NodeId kConfigId = 900;
constexpr NodeId kSwitchBase = 910;
constexpr NodeId kServerId = 950;
constexpr NodeId kClientBase = 1'000;
constexpr NodeId kReplicaBase = 1;
constexpr GroupId kGroup = 7;
}  // namespace

OpGen echo_ops(std::size_t size) {
    // Stateless: op (client, k) is generated from its own counter-based
    // stream, so concurrent clients on different simulator partitions can
    // generate ops without sharing generator state — and the bytes a client
    // sends cannot depend on how other clients' requests interleave.
    return [size](int client, std::uint64_t k) {
        StreamRng rng(0x99u + static_cast<std::uint64_t>(client),
                      0xec5e0000u ^ k);
        return rng.bytes(size);
    };
}

Measured run_closed_loop(Deployment& d, const OpGen& ops, sim::Time warmup, sim::Time measure,
                         const std::function<void()>& at_measure_start) {
    sim::Simulator& sim = d.simulator();
    const sim::Time start = sim.now();
    const sim::Time measure_from = start + warmup;
    const sim::Time deadline = measure_from + measure;

    // Critical-path attribution streams over the span events of this run:
    // the accumulator hangs off the master sink when the run is traced, or
    // off a spans-only sink of its own that stores nothing. The sink feeds
    // it in event-key order (PDES partitions buffer locally and merge at
    // window boundaries), so the phase_* metrics are byte-identical across
    // --sim-threads values. The window rule mirrors the latency histogram's
    // (begin >= measure_from): a request that began before the window is
    // not attributed.
    obs::TraceSink* master = sim.trace();
    obs::TraceSink local_spans;
    obs::TraceSink& span_src = master ? *master : local_spans;
    obs::CriticalPathAccumulator critical_path(measure_from);
    NEO_ASSERT_MSG(span_src.span_consumer() == nullptr,
                   "trace sink already has a span consumer");
    span_src.set_span_consumer(&critical_path);
    if (master == nullptr) {
        local_spans.set_kind_mask(obs::kSpanKindMask);
        local_spans.set_store(false);
        sim.set_trace(&local_spans);
    }

    // Baseline for the latency breakdown: snapshot the network / CPU-model /
    // queueing accumulators when the measurement window opens, so the deltas
    // cover exactly the measured interval. The user's at_measure_start runs
    // at the same event position it always did.
    struct BreakdownBase {
        sim::Time net = 0, cpu = 0, queue = 0;
    };
    auto base = std::make_shared<BreakdownBase>();
    sim.at(measure_from, [&d, base, at_measure_start] {
        base->net = d.network().transit_time();
        base->cpu = d.network().total_cpu_busy();
        base->queue = d.network().total_queue_wait();
        if (at_measure_start) at_measure_start();
    });

    // Per-client accumulators: a client's done-callback runs inside that
    // client node's event (possibly on a worker partition), so clients must
    // never share a histogram or counter. Disjoint vector slots are safe;
    // they are merged client-major after the run — an order independent of
    // thread count, keeping metrics byte-identical across --sim-threads.
    const std::size_t nclients = static_cast<std::size_t>(d.n_clients());
    auto hists = std::make_shared<std::vector<Histogram>>(nclients);
    auto completed = std::make_shared<std::vector<std::uint64_t>>(nclients, 0);
    auto per_client_k = std::make_shared<std::vector<std::uint64_t>>(nclients, 0);

    // One self-rescheduling closed loop per client. The loop refers to
    // itself weakly (a strong self-capture is a cycle that never frees);
    // each in-flight request's callback holds it strongly.
    auto issue = std::make_shared<std::function<void(int)>>();
    *issue = [&d, &ops, self = std::weak_ptr(issue), hists, completed, per_client_k,
              measure_from, deadline](int c) {
        sim::Simulator& s = d.simulator();
        if (s.now() >= deadline) return;
        std::uint64_t k = (*per_client_k)[static_cast<std::size_t>(c)]++;
        sim::Time begin = s.now();
        d.invoke(c, ops(c, k), [&d, issue = self.lock(), hists, completed, measure_from,
                                deadline, begin, c](Bytes) {
            sim::Time end = d.simulator().now();
            if (begin >= measure_from && end < deadline) {
                (*hists)[static_cast<std::size_t>(c)].add(sim::to_us(end - begin));
                ++(*completed)[static_cast<std::size_t>(c)];
            }
            (*issue)(c);
        });
    };
    for (int c = 0; c < d.n_clients(); ++c) (*issue)(c);

    sim.run_until(deadline);
    span_src.set_span_consumer(nullptr);
    if (master == nullptr) sim.set_trace(nullptr);

    Histogram hist;
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < nclients; ++c) {
        hist.merge((*hists)[c]);
        total += (*completed)[c];
    }

    Measured m;
    m.completed = total;
    m.throughput_ops = static_cast<double>(total) / sim::to_sec(measure);
    if (!hist.empty()) {
        m.p50_us = hist.percentile(50);
        m.mean_us = hist.mean();
        m.p99_us = hist.percentile(99);
        m.p999_us = hist.percentile(99.9);
    }
    if (total > 0) {
        double ops = static_cast<double>(total);
        m.net_us_per_op = sim::to_us(d.network().transit_time() - base->net) / ops;
        m.cpu_us_per_op = sim::to_us(d.network().total_cpu_busy() - base->cpu) / ops;
        m.queue_us_per_op = sim::to_us(d.network().total_queue_wait() - base->queue) / ops;
    }

    {
        obs::CriticalPathReport rep = critical_path.report();
        if (rep.requests > 0) {
            m.phase["phase_requests"] = static_cast<double>(rep.requests);
            m.phase["phase_e2e_mean_us"] = rep.e2e_mean_us;
            m.phase["phase_e2e_p50_us"] = rep.e2e_p50_us;
            m.phase["phase_e2e_p99_us"] = rep.e2e_p99_us;
            m.phase["phase_residual_us"] = rep.residual_us;
            for (const obs::PhaseStat& ph : rep.phases) {
                m.phase["phase_" + ph.phase + "_mean_us"] = ph.mean_us;
                m.phase["phase_" + ph.phase + "_p50_us"] = ph.p50_us;
                m.phase["phase_" + ph.phase + "_p99_us"] = ph.p99_us;
                m.phase["phase_" + ph.phase + "_share_pct"] = ph.share_pct;
            }
        }
        m.phase_live_peak = critical_path.live_high_water();
        m.span_events_stored = local_spans.size();
    }

    // Safety audit: every closed-loop run checks the deployment's
    // invariants. A violation is a safety bug, so fail fast rather than
    // report numbers measured on a divergent execution.
    obs::Auditor& aud = d.auditor();
    if (aud.configured()) {
        aud.finalize();
        aud.report(master);
        if (!aud.ok()) {
            for (const auto& v : aud.violations()) {
                std::fprintf(stderr, "auditor: %s\n", v.to_string().c_str());
            }
            NEO_ASSERT_MSG(false, "safety invariant violated (obs::Auditor)");
        }
    }
    return m;
}

// ----------------------------------------------------------- observability

namespace {

/// `--flag <value>` or `--flag=<value>` from argv, else `env`, else "".
std::string arg_or_env(int argc, char* const* argv, const char* flag, const char* env) {
    const std::size_t flen = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[i + 1];
        if (std::strncmp(argv[i], flag, flen) == 0 && argv[i][flen] == '=') {
            return argv[i] + flen + 1;
        }
    }
    const char* e = std::getenv(env);
    return e ? e : "";
}

}  // namespace

ObsSession::ObsSession(int argc, char* const* argv)
    : trace_path_(arg_or_env(argc, argv, "--trace", "NEO_TRACE")),
      metrics_path_(arg_or_env(argc, argv, "--metrics", "NEO_METRICS")) {
    // Reuse the runner's uniform CLI parsing so the metrics file's "meta"
    // header records the same seed / sim-threads values the runs used.
    BenchOptions o = BenchOptions::parse(argc, argv);
    meta_seed_ = o.base_seed;
    meta_seeds_ = o.seeds;
    meta_sim_threads_ = o.sim_threads;
}

ObsSession::~ObsSession() { flush(); }

ObsSession::Attachment& ObsSession::Attachment::operator=(Attachment&& o) noexcept {
    if (this != &o) {
        detach();
        s_ = o.s_;
        reg_ = std::move(o.reg_);
        sim_ = o.sim_;
        traced_ = o.traced_;
        o.s_ = nullptr;
        o.sim_ = nullptr;
        o.traced_ = false;
    }
    return *this;
}

void ObsSession::Attachment::detach() {
    if (!s_) return;
    if (reg_) {
        std::lock_guard<std::mutex> lk(s_->merge_m_);
        for (const auto& [k, v] : reg_->snapshot()) s_->merged_[k] = v;
    }
    if (traced_) {
        // The sink keeps the recorded events for flush(); just stop the
        // simulator writing into it and restore this thread's log clock.
        if (sim_) sim_->set_trace(nullptr);
        clear_log_time_source();
    }
    s_ = nullptr;
    reg_.reset();
    sim_ = nullptr;
    traced_ = false;
}

ObsSession::Attachment ObsSession::attach(
    sim::Simulator& sim, const std::string& label, bool want_trace,
    const std::function<void(obs::Registry&, obs::TraceSink*)>& reg) {
    (void)label;
    if (!enabled()) return {};
    Attachment a;
    a.s_ = this;
    a.reg_ = std::make_unique<obs::Registry>();
    obs::TraceSink* tr = nullptr;
    if (tracing() && want_trace && !trace_claimed_.exchange(true)) {
        a.traced_ = true;
        a.sim_ = &sim;
        tr = &sink_;
        sim.set_trace(&sink_);
        // Log lines emitted by this run's thread carry its virtual clock
        // (the source is thread-local, so concurrent runs don't clash).
        set_log_time_source([&sim] { return sim.now(); });
    }
    reg(*a.reg_, tr);
    return a;
}

ObsSession::Attachment ObsSession::attach(Deployment& d, const std::string& label,
                                          bool want_trace) {
    return attach(d.simulator(), label, want_trace,
                  [&d, &label](obs::Registry& r, obs::TraceSink* tr) {
                      d.register_obs(r, label, tr);
                  });
}

void ObsSession::flush() {
    if (flushed_) return;
    flushed_ = true;
    if (metrics()) {
        // Same {"counters":{},"values":{...}} shape Registry::write_json
        // produces, plus a "meta" header so archived files are
        // self-describing (docs/OBSERVABILITY.md).
        Json root = Json::object();
        root.set("meta", run_meta_json(meta_seed_, meta_seeds_, meta_sim_threads_));
        root.set("counters", Json::object());
        Json values = Json::object();
        for (const auto& [k, v] : merged_) values.set(k, Json(v));
        root.set("values", std::move(values));
        std::ofstream out(metrics_path_, std::ios::binary | std::ios::trunc);
        if (out) out << root.dump() << "\n";
        if (!out) {
            std::fprintf(stderr, "obs: cannot write metrics file %s\n", metrics_path_.c_str());
        }
    }
    if (tracing()) {
        bool jsonl = trace_path_.size() >= 6 &&
                     trace_path_.compare(trace_path_.size() - 6, 6, ".jsonl") == 0;
        bool ok = jsonl ? sink_.write_jsonl_file(trace_path_)
                        : sink_.write_chrome_trace_file(trace_path_);
        if (!ok) {
            std::fprintf(stderr, "obs: cannot write trace file %s\n", trace_path_.c_str());
        }
    }
}

// ----------------------------------------------------------- unreplicated

namespace {

class UnreplicatedDeployment : public Deployment {
  public:
    explicit UnreplicatedDeployment(const CommonParams& p)
        : sim_(p.sim_threads), net_(sim_, p.seed), root_(p.crypto_mode, p.seed + 1) {
        net_.set_default_link(sim::datacenter_link());
        net_.set_global_drop_rate(p.drop_rate);
        auditor_.configure(sim_.partitions() + 1);
        server_ = std::make_unique<baselines::UnreplicatedServer>(root_.provision(kServerId));
        server_->set_auditor(&auditor_);
        net_.add_node(*server_, kServerId);
        for (int i = 0; i < p.n_clients; ++i) {
            NodeId cid = kClientBase + static_cast<NodeId>(i);
            clients_.push_back(std::make_unique<baselines::UnreplicatedClient>(
                kServerId, root_.provision(cid)));
            net_.add_node(*clients_.back(), cid);
        }
    }

    sim::Simulator& simulator() override { return sim_; }
    sim::Network& network() override { return net_; }
    int n_clients() const override { return static_cast<int>(clients_.size()); }
    void invoke(int client, Bytes op, std::function<void(Bytes)> done) override {
        clients_[static_cast<std::size_t>(client)]->invoke(std::move(op), std::move(done));
    }

    void register_obs(obs::Registry& reg, const std::string& prefix,
                      obs::TraceSink* trace) override {
        net_.register_metrics(reg, prefix + ".net");
        server_->register_rx_metrics(reg, prefix + ".server", &baselines::kind_name);
        if (trace) {
            trace->set_node_name(kServerId, "server");
            for (const auto& c : clients_) {
                trace->set_node_name(c->id(), "client " + std::to_string(c->id()));
            }
        }
    }

  private:
    sim::Simulator sim_;
    sim::Network net_;
    crypto::TrustRoot root_;
    std::unique_ptr<baselines::UnreplicatedServer> server_;
    std::vector<std::unique_ptr<baselines::UnreplicatedClient>> clients_;
};

// ----------------------------------------------------------------- NeoBFT

class NeoDeployment : public Deployment {
  public:
    explicit NeoDeployment(const NeoParams& p)
        : sim_(p.sim_threads), net_(sim_, p.seed), root_(p.crypto_mode, p.seed + 1), keys_(p.seed + 2) {
        if (p.placement) sim_.set_placement(p.placement);
        net_.set_default_link(sim::datacenter_link());
        net_.set_global_drop_rate(p.drop_rate);

        neobft::Config cfg;
        cfg.f = (p.n_replicas - 1) / 3;
        cfg.group = kGroup;
        cfg.config_service = kConfigId;
        cfg.sync_interval = p.sync_interval;
        cfg.checkpoint_interval = p.checkpoint_interval;
        for (int i = 0; i < p.n_replicas; ++i) {
            cfg.replicas.push_back(kReplicaBase + static_cast<NodeId>(i));
        }

        aom::GroupConfig group;
        group.group = kGroup;
        group.variant =
            p.variant == NeoVariant::kPk ? aom::AuthVariant::kPublicKey : aom::AuthVariant::kHmacVector;
        group.trust = p.variant == NeoVariant::kBn ? aom::NetworkTrust::kByzantine
                                                   : aom::NetworkTrust::kCrashOnly;
        group.f = cfg.f;
        group.receivers = cfg.replicas;

        aom::SequencerConfig seq_cfg =
            p.software_sequencer ? aom::SequencerConfig::software_profile() : aom::SequencerConfig{};
        for (int s = 0; s < 2; ++s) {
            NodeId sid = kSwitchBase + static_cast<NodeId>(s);
            if (p.byz_sequencer) {
                auto sw = std::make_unique<scenario::ByzSequencer>(seq_cfg, root_.provision(sid),
                                                                   &keys_);
                byz_switches_.push_back(sw.get());
                switches_.push_back(std::move(sw));
            } else {
                switches_.push_back(
                    std::make_unique<aom::SequencerSwitch>(seq_cfg, root_.provision(sid), &keys_));
            }
            net_.add_node(*switches_.back(), sid);
        }
        std::vector<aom::SequencerSwitch*> pool;
        for (auto& sw : switches_) pool.push_back(sw.get());
        config_ = std::make_unique<aom::ConfigService>(&keys_, pool);
        net_.add_node(*config_, kConfigId);
        config_->register_group(group);

        auto app_factory = p.app_factory
                               ? p.app_factory
                               : [] { return std::make_unique<app::EchoApp>(); };
        auditor_.configure(sim_.partitions() + 1);
        for (NodeId rid : cfg.replicas) {
            auto rep = std::make_unique<neobft::Replica>(cfg, root_.provision(rid), &keys_,
                                                         app_factory(), p.receiver);
            rep->set_auditor(&auditor_);
            net_.add_node(*rep, rid);
            rep->bootstrap(group, config_->current_sequencer(kGroup));
            replicas_.push_back(std::move(rep));
        }
        for (int i = 0; i < p.n_clients; ++i) {
            NodeId cid = kClientBase + static_cast<NodeId>(i);
            clients_.push_back(
                std::make_unique<neobft::Client>(cfg, root_.provision(cid), config_.get()));
            net_.add_node(*clients_.back(), cid);
        }
    }

    sim::Simulator& simulator() override { return sim_; }
    sim::Network& network() override { return net_; }
    int n_clients() const override { return static_cast<int>(clients_.size()); }
    void invoke(int client, Bytes op, std::function<void(Bytes)> done) override {
        clients_[static_cast<std::size_t>(client)]->invoke(std::move(op), std::move(done));
    }

    std::vector<NodeId> replica_ids() const override {
        std::vector<NodeId> out;
        for (const auto& r : replicas_) out.push_back(r->id());
        return out;
    }
    crypto::CostMeter* replica_meter(NodeId id) override {
        for (auto& r : replicas_) {
            if (r->id() == id) return &r->node_crypto().meter();
        }
        return nullptr;
    }

    void inject_sequencer_failure() override { switches_[0]->set_stall(true); }
    std::uint64_t failovers() const override { return config_->failovers_performed(); }

    bool crash_replica(NodeId id) override {
        for (auto& r : replicas_) {
            if (r->id() == id) {
                r->crash();
                return true;
            }
        }
        return false;
    }
    bool recover_replica(NodeId id) override {
        for (auto& r : replicas_) {
            if (r->id() == id) {
                r->recover();
                return true;
            }
        }
        return false;
    }
    bool set_replica_equivocate(NodeId id, bool on) override {
        for (auto& r : replicas_) {
            if (r->id() == id) {
                r->set_equivocate(on);
                return true;
            }
        }
        return false;
    }
    bool sequencer_fault(const scenario::Adapter::SeqFault& f) override {
        using scenario::FaultKind;
        if (f.kind == FaultKind::kSeqStall) {
            // Stall is supported by the stock switch too.
            for (auto& sw : switches_) sw->set_stall(f.on);
            return true;
        }
        if (byz_switches_.empty()) return false;
        // Apply to every switch so the fault survives failover to the
        // standby (the adversary compromised the sequencing layer, not one
        // box).
        for (scenario::ByzSequencer* sw : byz_switches_) {
            scenario::ByzSequencer::Faults faults = sw->faults();
            std::uint32_t mod = f.on ? f.mod : 0;
            switch (f.kind) {
                case FaultKind::kSeqDrop: faults.drop_mod = mod; break;
                case FaultKind::kSeqDuplicate: faults.dup_mod = mod; break;
                case FaultKind::kSeqCorrupt: faults.corrupt_mod = mod; break;
                case FaultKind::kSeqStripSig: faults.strip_sig_mod = mod; break;
                case FaultKind::kSeqEquivocate: faults.equivocate_mod = mod; break;
                default: return false;
            }
            sw->set_faults(faults);
        }
        return true;
    }
    std::uint64_t client_completed(int c) const override {
        return clients_[static_cast<std::size_t>(c)]->completed();
    }

    void register_obs(obs::Registry& reg, const std::string& prefix,
                      obs::TraceSink* trace) override {
        net_.register_metrics(reg, prefix + ".net");
        for (auto& r : replicas_) {
            r->register_metrics(reg, prefix + ".replica." + std::to_string(r->id()));
        }
        for (std::size_t s = 0; s < switches_.size(); ++s) {
            switches_[s]->register_metrics(reg, prefix + ".sequencer." + std::to_string(s));
        }
        if (trace) {
            for (const auto& r : replicas_) {
                trace->set_node_name(r->id(), "replica " + std::to_string(r->id()));
            }
            for (std::size_t s = 0; s < switches_.size(); ++s) {
                trace->set_node_name(switches_[s]->id(), "sequencer " + std::to_string(s));
            }
            trace->set_node_name(kConfigId, "config service");
            for (const auto& c : clients_) {
                trace->set_node_name(c->id(), "client " + std::to_string(c->id()));
            }
        }
    }

    const std::vector<std::unique_ptr<neobft::Replica>>& replicas() const { return replicas_; }

  private:
    sim::Simulator sim_;
    sim::Network net_;
    crypto::TrustRoot root_;
    aom::AomKeyService keys_;
    std::vector<std::unique_ptr<aom::SequencerSwitch>> switches_;
    std::vector<scenario::ByzSequencer*> byz_switches_;
    std::unique_ptr<aom::ConfigService> config_;
    std::vector<std::unique_ptr<neobft::Replica>> replicas_;
    std::vector<std::unique_ptr<neobft::Client>> clients_;
};

// -------------------------------------------------------------- baselines

template <typename ReplicaT, typename CfgT>
class BaselineDeployment : public Deployment {
  public:
    BaselineDeployment(const CommonParams& p, int n_replicas, std::size_t client_quorum,
                       const std::function<std::unique_ptr<ReplicaT>(
                           const CfgT&, std::unique_ptr<crypto::NodeCrypto>)>& make_replica)
        : sim_(p.sim_threads), net_(sim_, p.seed), root_(p.crypto_mode, p.seed + 1) {
        net_.set_default_link(sim::datacenter_link());
        net_.set_global_drop_rate(p.drop_rate);

        cfg_.f = (p.n_replicas - 1) / 3;
        cfg_.batch_max = p.batch_max;
        cfg_.batch_delay = p.batch_delay;
        for (int i = 0; i < n_replicas; ++i) {
            cfg_.replicas.push_back(kReplicaBase + static_cast<NodeId>(i));
        }
        auditor_.configure(sim_.partitions() + 1);
        for (NodeId rid : cfg_.replicas) {
            auto rep = make_replica(cfg_, root_.provision(rid));
            if (p.baseline_app_factory) rep->set_app(p.baseline_app_factory());
            rep->set_auditor(&auditor_);
            net_.add_node(*rep, rid);
            replicas_.push_back(std::move(rep));
        }
        for (int i = 0; i < p.n_clients; ++i) {
            NodeId cid = kClientBase + static_cast<NodeId>(i);
            clients_.push_back(std::make_unique<baselines::QuorumClient>(
                cfg_, root_.provision(cid), client_quorum));
            net_.add_node(*clients_.back(), cid);
        }
    }

    sim::Simulator& simulator() override { return sim_; }
    sim::Network& network() override { return net_; }
    int n_clients() const override { return static_cast<int>(clients_.size()); }
    void invoke(int client, Bytes op, std::function<void(Bytes)> done) override {
        clients_[static_cast<std::size_t>(client)]->invoke(std::move(op), std::move(done));
    }
    std::vector<NodeId> replica_ids() const override { return cfg_.replicas; }
    crypto::CostMeter* replica_meter(NodeId id) override {
        for (auto& r : replicas_) {
            if (r->id() == id) return &r->node_crypto().meter();
        }
        return nullptr;
    }
    bool set_replica_equivocate(NodeId id, bool on) override {
        for (auto& r : replicas_) {
            if (r->id() == id) {
                r->set_equivocate(on);
                return true;
            }
        }
        return false;
    }
    std::uint64_t client_completed(int c) const override {
        return clients_[static_cast<std::size_t>(c)]->completed();
    }

    void register_obs(obs::Registry& reg, const std::string& prefix,
                      obs::TraceSink* trace) override {
        net_.register_metrics(reg, prefix + ".net");
        for (auto& r : replicas_) {
            r->register_metrics(reg, prefix + ".replica." + std::to_string(r->id()));
        }
        if (trace) {
            for (const auto& r : replicas_) {
                trace->set_node_name(r->id(), "replica " + std::to_string(r->id()));
            }
            for (const auto& c : clients_) {
                trace->set_node_name(c->id(), "client " + std::to_string(c->id()));
            }
        }
    }

    CfgT cfg_;
    sim::Simulator sim_;
    sim::Network net_;
    crypto::TrustRoot root_;
    std::vector<std::unique_ptr<ReplicaT>> replicas_;
    std::vector<std::unique_ptr<baselines::QuorumClient>> clients_;
};

class ZyzzyvaDeployment : public Deployment {
  public:
    explicit ZyzzyvaDeployment(const ZyzzyvaParams& p)
        : sim_(p.sim_threads), net_(sim_, p.seed), root_(p.crypto_mode, p.seed + 1) {
        net_.set_default_link(sim::datacenter_link());
        net_.set_global_drop_rate(p.drop_rate);
        cfg_.f = (p.n_replicas - 1) / 3;
        cfg_.batch_max = p.batch_max;
        cfg_.batch_delay = p.batch_delay;
        for (int i = 0; i < p.n_replicas; ++i) {
            cfg_.replicas.push_back(kReplicaBase + static_cast<NodeId>(i));
        }
        auditor_.configure(sim_.partitions() + 1);
        for (NodeId rid : cfg_.replicas) {
            auto rep = std::make_unique<baselines::ZyzzyvaReplica>(cfg_, root_.provision(rid));
            if (p.baseline_app_factory) rep->set_app(p.baseline_app_factory());
            rep->set_auditor(&auditor_);
            net_.add_node(*rep, rid);
            replicas_.push_back(std::move(rep));
        }
        if (p.faulty_replica) replicas_.back()->set_silent(true);
        for (int i = 0; i < p.n_clients; ++i) {
            NodeId cid = kClientBase + static_cast<NodeId>(i);
            clients_.push_back(
                std::make_unique<baselines::ZyzzyvaClient>(cfg_, root_.provision(cid)));
            net_.add_node(*clients_.back(), cid);
        }
    }

    sim::Simulator& simulator() override { return sim_; }
    sim::Network& network() override { return net_; }
    int n_clients() const override { return static_cast<int>(clients_.size()); }
    void invoke(int client, Bytes op, std::function<void(Bytes)> done) override {
        clients_[static_cast<std::size_t>(client)]->invoke(std::move(op), std::move(done));
    }
    std::vector<NodeId> replica_ids() const override { return cfg_.replicas; }
    crypto::CostMeter* replica_meter(NodeId id) override {
        for (auto& r : replicas_) {
            if (r->id() == id) return &r->node_crypto().meter();
        }
        return nullptr;
    }
    bool set_replica_equivocate(NodeId id, bool on) override {
        for (auto& r : replicas_) {
            if (r->id() == id) {
                r->set_equivocate(on);
                return true;
            }
        }
        return false;
    }
    std::uint64_t client_completed(int c) const override {
        return clients_[static_cast<std::size_t>(c)]->completed();
    }

    void register_obs(obs::Registry& reg, const std::string& prefix,
                      obs::TraceSink* trace) override {
        net_.register_metrics(reg, prefix + ".net");
        for (auto& r : replicas_) {
            r->register_metrics(reg, prefix + ".replica." + std::to_string(r->id()));
        }
        if (trace) {
            for (const auto& r : replicas_) {
                trace->set_node_name(r->id(), "replica " + std::to_string(r->id()));
            }
            for (const auto& c : clients_) {
                trace->set_node_name(c->id(), "client " + std::to_string(c->id()));
            }
        }
    }

  private:
    baselines::ZyzzyvaConfig cfg_;
    sim::Simulator sim_;
    sim::Network net_;
    crypto::TrustRoot root_;
    std::vector<std::unique_ptr<baselines::ZyzzyvaReplica>> replicas_;
    std::vector<std::unique_ptr<baselines::ZyzzyvaClient>> clients_;
};

}  // namespace

std::unique_ptr<Deployment> make_unreplicated(const CommonParams& p) {
    return std::make_unique<UnreplicatedDeployment>(p);
}

std::unique_ptr<Deployment> make_neobft(const NeoParams& p) {
    return std::make_unique<NeoDeployment>(p);
}

std::unique_ptr<Deployment> make_pbft(const CommonParams& p) {
    int f = (p.n_replicas - 1) / 3;
    return std::make_unique<BaselineDeployment<baselines::PbftReplica, baselines::PbftConfig>>(
        p, p.n_replicas, static_cast<std::size_t>(f + 1),
        [](const baselines::PbftConfig& cfg, std::unique_ptr<crypto::NodeCrypto> c) {
            return std::make_unique<baselines::PbftReplica>(cfg, std::move(c));
        });
}

std::unique_ptr<Deployment> make_zyzzyva(const ZyzzyvaParams& p) {
    return std::make_unique<ZyzzyvaDeployment>(p);
}

std::unique_ptr<Deployment> make_hotstuff(const CommonParams& p) {
    int f = (p.n_replicas - 1) / 3;
    return std::make_unique<
        BaselineDeployment<baselines::HotStuffReplica, baselines::HotStuffConfig>>(
        p, p.n_replicas, static_cast<std::size_t>(f + 1),
        [](const baselines::HotStuffConfig& cfg, std::unique_ptr<crypto::NodeCrypto> c) {
            return std::make_unique<baselines::HotStuffReplica>(cfg, std::move(c));
        });
}

std::unique_ptr<Deployment> make_minbft(const CommonParams& p) {
    int f = (p.n_replicas - 1) / 3;
    int n = 2 * f + 1;
    std::uint64_t usig_seed = p.seed + 7;
    auto d = std::make_unique<
        BaselineDeployment<baselines::MinbftReplica, baselines::MinbftConfig>>(
        p, n, static_cast<std::size_t>(f + 1),
        [usig_seed](const baselines::MinbftConfig& cfg, std::unique_ptr<crypto::NodeCrypto> c) {
            return std::make_unique<baselines::MinbftReplica>(cfg, std::move(c), usig_seed);
        });
    // BaselineDeployment computed f from n_replicas (3f+1 convention); MinBFT
    // keeps the same f but with 2f+1 replicas.
    d->cfg_.f = f;
    return d;
}

// ------------------------------------------------------------------ output

TablePrinter::TablePrinter(std::vector<std::string> columns) {
    for (const auto& c : columns) widths_.push_back(std::max<std::size_t>(c.size() + 2, 12));
    row(columns);
    std::string sep;
    for (std::size_t w : widths_) sep += std::string(w, '-') + "  ";
    std::printf("%s\n", sep.c_str());
}

void TablePrinter::row(const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::size_t w = i < widths_.size() ? widths_[i] : 12;
        std::string cell = cells[i];
        if (cell.size() < w) cell += std::string(w - cell.size(), ' ');
        line += cell + "  ";
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::string fmt_double(double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::map<std::string, double> measured_metrics(const Measured& m) {
    std::map<std::string, double> out = {
        {"tput_ops", m.throughput_ops},
        {"p50_us", m.p50_us},
        {"mean_us", m.mean_us},
        {"p99_us", m.p99_us},
        {"p999_us", m.p999_us},
        {"completed", static_cast<double>(m.completed)},
        {"net_us_per_op", m.net_us_per_op},
        {"cpu_us_per_op", m.cpu_us_per_op},
        {"queue_us_per_op", m.queue_us_per_op},
    };
    out.insert(m.phase.begin(), m.phase.end());
    return out;
}

const char* build_git_describe() {
#ifdef NEO_GIT_DESCRIBE
    return NEO_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

const char* build_type_name() {
#ifdef NEO_BUILD_TYPE
    if (NEO_BUILD_TYPE[0] != '\0') return NEO_BUILD_TYPE;
#endif
    return "unspecified";
}

Json run_meta_json(std::uint64_t base_seed, int seeds, unsigned sim_threads) {
    Json meta = Json::object();
    meta.set("base_seed", Json(static_cast<double>(base_seed)));
    meta.set("build_type", Json(std::string(build_type_name())));
    meta.set("git_describe", Json(std::string(build_git_describe())));
    Json seed_list = Json::array();
    for (int s = 0; s < seeds; ++s) {
        seed_list.push_back(Json(static_cast<double>(base_seed + static_cast<std::uint64_t>(s))));
    }
    meta.set("seeds", std::move(seed_list));
    meta.set("sim_threads", Json(static_cast<double>(sim_threads)));
    return meta;
}

}  // namespace neo::bench
