#include "harness.hpp"

#include <algorithm>
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
#include "neobft/shard_client.hpp"
#include "obs/critical_path.hpp"
#include "scenario/byz_sequencer.hpp"

namespace neo::bench {

namespace {
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

namespace {

/// One self-rescheduling issue chain per client. The chain holds itself
/// weakly (a strong self-capture is a cycle that never frees); each
/// in-flight request's callback holds it strongly.
class ClosedLoop : public std::enable_shared_from_this<ClosedLoop> {
  public:
    ClosedLoop(Deployment& d, OpGen ops, sim::Time deadline, OnDone on_done)
        : d_(d), ops_(std::move(ops)), deadline_(deadline), on_done_(std::move(on_done)),
          next_k_(static_cast<std::size_t>(d.n_clients()), 0) {}

    void issue(int c) {
        sim::Time begin = d_.simulator().now();
        if (begin >= deadline_) return;
        std::uint64_t k = next_k_[static_cast<std::size_t>(c)]++;
        d_.invoke(c, ops_(c, k), [self = shared_from_this(), begin, c](Bytes) {
            sim::Time end = self->d_.simulator().now();
            if (end < self->deadline_) self->on_done_(c, begin, end);
            self->issue(c);
        });
    }

  private:
    Deployment& d_;
    OpGen ops_;
    sim::Time deadline_;
    OnDone on_done_;
    std::vector<std::uint64_t> next_k_;  // slot c touched only by client c
};

}  // namespace

void start_closed_loop(Deployment& d, OpGen ops, sim::Time deadline, OnDone on_done) {
    auto loop = std::make_shared<ClosedLoop>(d, std::move(ops), deadline, std::move(on_done));
    for (int c = 0; c < d.n_clients(); ++c) loop->issue(c);
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
    start_closed_loop(d, ops, deadline,
                      [hists, completed, measure_from](int c, sim::Time begin, sim::Time end) {
                          if (begin < measure_from) return;
                          (*hists)[static_cast<std::size_t>(c)].add(sim::to_us(end - begin));
                          ++(*completed)[static_cast<std::size_t>(c)];
                      });

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

// ---------------------------------------------------------- deployment core

Topology::Topology(const CommonParams& p, bool aom,
                   sim::Simulator::PlacementFn default_placement)
    : sim_(p.sim_threads), net_(sim_, p.seed), root_(p.crypto_mode, p.seed + 1) {
    // Installed before the first add_node, so it governs every node.
    sim_.set_placement(p.placement ? p.placement : std::move(default_placement));
    if (aom) keys_.emplace(p.seed + 2);
    net_.set_default_link(sim::datacenter_link());
    net_.set_global_drop_rate(p.drop_rate);
    auditor_.configure(sim_.partitions() + 1);
}

Topology::~Topology() {
    // Reverse adoption order, as members would be: coordinators and clients
    // go before the replicas, config service and switches they point at.
    while (!owned_.empty()) owned_.pop_back();
}

std::vector<NodeId> Topology::replica_ids() const {
    std::vector<NodeId> out;
    for (const ReplicaHooks& r : replicas_) out.push_back(r.id);
    return out;
}

Topology::ReplicaHooks* Topology::find_replica(NodeId id) {
    for (ReplicaHooks& r : replicas_) {
        if (r.id == id) return &r;
    }
    return nullptr;
}

crypto::CostMeter* Topology::replica_meter(NodeId id) {
    ReplicaHooks* r = find_replica(id);
    return r ? r->meter : nullptr;
}

bool Topology::set_crashed(NodeId id, bool down) {
    ReplicaHooks* r = find_replica(id);
    if (!r || !r->set_crashed) return false;
    r->set_crashed(down);
    return true;
}

bool Topology::set_equivocate(NodeId id, bool on) {
    ReplicaHooks* r = find_replica(id);
    if (!r) return false;
    r->set_equivocate(on);
    return true;
}

bool Topology::sequencer_fault(const SeqFault& f) {
    using scenario::FaultKind;
    if (f.kind == FaultKind::kSeqStall) {
        if (switches_.empty()) return false;
        switches_[0]->set_stall(f.on);
        return true;
    }
    // Every switch, so the fault survives failover to the standby (the
    // adversary compromised the sequencing layer, not one box).
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
    return !byz_switches_.empty();
}

std::uint64_t Topology::failovers() const {
    return config_ ? config_->failovers_performed() : 0;
}

bool Topology::abandon_coordinator(int client) {
    if (coordinators_.empty()) return false;
    coordinators_[static_cast<std::size_t>(client)]->abandon();
    return true;
}

Deployment::TxnTotals Topology::txn_totals() const {
    TxnTotals t;
    for (const neobft::ShardClient* sc : coordinators_) {
        const neobft::ShardClient::Stats& s = sc->stats();
        t.txns_started += s.txns_started;
        t.committed_txns += s.committed_txns;
        t.aborted_txns += s.aborted_txns;
        t.committed_ops += s.committed_ops;
        t.cross_shard_txns += s.cross_shard_txns;
    }
    return t;
}

namespace {

/// The trace track of node `id` under the shared id layout; its metrics key
/// is the same name with the space made a dot ("replica.3", "sequencer.0").
std::string node_name(NodeId id) {
    if (id >= Topology::kClientBase) return "client " + std::to_string(id);
    if (id == Topology::kServerId) return "server";
    if (id == Topology::kConfigId) return "config service";
    if (id >= Topology::kSwitchBase) return "sequencer " + std::to_string(id - Topology::kSwitchBase);
    return "replica " + std::to_string(id);
}

}  // namespace

void Topology::register_obs(obs::Registry& reg, const std::string& prefix,
                            obs::TraceSink* trace) {
    net_.register_metrics(reg, prefix + ".net");
    for (const auto& [id, fn] : metrics_) {
        std::string key = node_name(id);
        std::replace(key.begin(), key.end(), ' ', '.');
        fn(reg, prefix + "." + key);
    }
    if (trace) {
        for (NodeId id : ids_) trace->set_node_name(id, node_name(id));
    }
}

void Topology::add_coordinator(std::unique_ptr<neobft::ShardClient> coordinator) {
    clients_.push_back({coordinator.get(), &invoke_client<neobft::ShardClient>});
    coordinators_.push_back(&adopt(std::move(coordinator)));
}

aom::ConfigService& Topology::add_sequencers(int count, const aom::SequencerConfig& cfg,
                                             bool byz) {
    for (int s = 0; s < count; ++s) {
        NodeId sid = kSwitchBase + static_cast<NodeId>(s);
        aom::SequencerSwitch* sw;
        if (byz) {
            auto b = std::make_unique<scenario::ByzSequencer>(cfg, provision(sid), keys());
            byz_switches_.push_back(b.get());
            sw = &add_node(std::move(b), sid);
        } else {
            sw = &add_node(std::make_unique<aom::SequencerSwitch>(cfg, provision(sid), keys()),
                           sid);
        }
        add_metrics(sid, [sw](obs::Registry& reg, const std::string& key) {
            sw->register_metrics(reg, key);
        });
        switches_.push_back(sw);
    }
    config_ = &add_node(std::make_unique<aom::ConfigService>(keys(), switches_), kConfigId);
    return *config_;
}

aom::GroupConfig neo_group(NeoVariant variant, GroupId group, std::vector<NodeId> receivers) {
    aom::GroupConfig g;
    g.group = group;
    g.variant = variant == NeoVariant::kPk ? aom::AuthVariant::kPublicKey
                                           : aom::AuthVariant::kHmacVector;
    g.trust = variant == NeoVariant::kBn ? aom::NetworkTrust::kByzantine
                                         : aom::NetworkTrust::kCrashOnly;
    g.f = (static_cast<int>(receivers.size()) - 1) / 3;
    g.receivers = std::move(receivers);
    return g;
}

// -------------------------------------------------------------- factories

std::unique_ptr<Deployment> make_neobft(const NeoParams& p) {
    auto t = std::make_unique<Topology>(p, true);
    neobft::Config cfg;
    cfg.group = kGroup;
    cfg.config_service = Topology::kConfigId;
    cfg.sync_interval = p.sync_interval;
    cfg.checkpoint_interval = p.checkpoint_interval;
    for (int i = 0; i < p.n_replicas; ++i) {
        cfg.replicas.push_back(Topology::kReplicaBase + static_cast<NodeId>(i));
    }
    aom::GroupConfig group = neo_group(p.variant, kGroup, cfg.replicas);
    cfg.f = group.f;

    aom::ConfigService& config = t->add_sequencers(
        2, p.software_sequencer ? aom::SequencerConfig::software_profile() : aom::SequencerConfig{},
        p.byz_sequencer);
    config.register_group(group);

    auto app_factory = p.app_factory
                           ? p.app_factory
                           : [] { return std::make_unique<app::EchoApp>(); };
    for (NodeId rid : cfg.replicas) {
        auto& rep = t->add_replica(std::make_unique<neobft::Replica>(cfg, t->provision(rid),
                                                                     t->keys(), app_factory(),
                                                                     p.receiver),
                                   rid);
        rep.bootstrap(group, config.current_sequencer(kGroup));
    }
    for (int i = 0; i < p.n_clients; ++i) {
        NodeId cid = Topology::kClientBase + static_cast<NodeId>(i);
        t->add_client(std::make_unique<neobft::Client>(cfg, t->provision(cid), &config), cid);
    }
    return t;
}

namespace {

std::unique_ptr<Deployment> make_unreplicated(const CommonParams& p) {
    auto t = std::make_unique<Topology>(p, false);
    const NodeId sid = Topology::kServerId;
    auto& server =
        t->add_node(std::make_unique<baselines::UnreplicatedServer>(t->provision(sid)), sid);
    server.set_auditor(&t->auditor());
    t->add_metrics(sid, [&server](obs::Registry& reg, const std::string& key) {
        server.register_rx_metrics(reg, key, &baselines::kind_name);
    });
    for (int i = 0; i < p.n_clients; ++i) {
        NodeId cid = Topology::kClientBase + static_cast<NodeId>(i);
        t->add_client(std::make_unique<baselines::UnreplicatedClient>(sid, t->provision(cid)),
                      cid);
    }
    return t;
}

/// A leader-based baseline: `n` replicas `make_replica(cfg, crypto)` over
/// one shared config (f from the 3f+1 convention on p.n_replicas), then
/// p.n_clients clients `make_client(cfg, crypto)`.
template <typename Cfg, typename MakeReplica, typename MakeClient>
std::unique_ptr<Deployment> make_baseline(const CommonParams& p, int n, MakeReplica make_replica,
                                          MakeClient make_client) {
    auto t = std::make_unique<Topology>(p, false);
    Cfg cfg;
    cfg.f = (p.n_replicas - 1) / 3;
    cfg.batch_max = p.batch_max;
    cfg.batch_delay = p.batch_delay;
    for (int i = 0; i < n; ++i) cfg.replicas.push_back(Topology::kReplicaBase + static_cast<NodeId>(i));
    for (NodeId rid : cfg.replicas) {
        auto rep = make_replica(cfg, t->provision(rid));
        if (p.baseline_app_factory) rep->set_app(p.baseline_app_factory());
        t->add_replica(std::move(rep), rid);
    }
    for (int i = 0; i < p.n_clients; ++i) {
        NodeId cid = Topology::kClientBase + static_cast<NodeId>(i);
        t->add_client(make_client(cfg, t->provision(cid)), cid);
    }
    return t;
}

/// The leader-based baselines' client: accepts a result once f+1 replicas
/// agree on it.
auto quorum_client(const CommonParams& p) {
    auto quorum = static_cast<std::size_t>((p.n_replicas - 1) / 3 + 1);
    return [quorum](const baselines::BaseConfig& cfg, std::unique_ptr<crypto::NodeCrypto> c) {
        return std::make_unique<baselines::QuorumClient>(cfg, std::move(c), quorum);
    };
}

std::unique_ptr<Deployment> make_pbft(const CommonParams& p) {
    return make_baseline<baselines::BaseConfig>(
        p, p.n_replicas,
        [](const baselines::BaseConfig& cfg, std::unique_ptr<crypto::NodeCrypto> c) {
            return std::make_unique<baselines::PbftReplica>(cfg, std::move(c));
        },
        quorum_client(p));
}

std::unique_ptr<Deployment> make_zyzzyva(const CommonParams& p) {
    return make_baseline<baselines::BaseConfig>(
        p, p.n_replicas,
        [](const baselines::BaseConfig& cfg, std::unique_ptr<crypto::NodeCrypto> c) {
            return std::make_unique<baselines::ZyzzyvaReplica>(cfg, std::move(c));
        },
        [](const baselines::BaseConfig& cfg, std::unique_ptr<crypto::NodeCrypto> c) {
            return std::make_unique<baselines::ZyzzyvaClient>(cfg, std::move(c));
        });
}

std::unique_ptr<Deployment> make_hotstuff(const CommonParams& p) {
    return make_baseline<baselines::BaseConfig>(
        p, p.n_replicas,
        [](const baselines::BaseConfig& cfg, std::unique_ptr<crypto::NodeCrypto> c) {
            return std::make_unique<baselines::HotStuffReplica>(cfg, std::move(c));
        },
        quorum_client(p));
}

std::unique_ptr<Deployment> make_minbft(const CommonParams& p) {
    // Same f as the 3f+1 protocols, but 2f+1 replicas.
    int f = (p.n_replicas - 1) / 3;
    std::uint64_t usig_seed = p.seed + 7;
    return make_baseline<baselines::MinbftConfig>(
        p, 2 * f + 1,
        [usig_seed](const baselines::MinbftConfig& cfg, std::unique_ptr<crypto::NodeCrypto> c) {
            return std::make_unique<baselines::MinbftReplica>(cfg, std::move(c), usig_seed);
        },
        quorum_client(p));
}

struct SystemInfo {
    const char* name;
    const char* label;
};

/// Indexed by System.
constexpr SystemInfo kSystemInfo[] = {
    {"Unreplicated", "unreplicated"}, {"Neo-HM", "neo_hm"},     {"Neo-PK", "neo_pk"},
    {"Neo-BN", "neo_bn"},             {"Zyzzyva", "zyzzyva"},   {"Zyzzyva-F", "zyzzyva_f"},
    {"PBFT", "pbft"},                 {"HotStuff", "hotstuff"}, {"MinBFT", "minbft"},
};
static_assert(std::size(kSystemInfo) == std::size(kAllSystems));

}  // namespace

const char* system_name(System s) { return kSystemInfo[static_cast<std::size_t>(s)].name; }
const char* system_label(System s) { return kSystemInfo[static_cast<std::size_t>(s)].label; }

System system_from_label(const std::string& label) {
    for (System s : kAllSystems) {
        if (label == system_label(s)) return s;
    }
    NEO_ASSERT_MSG(false, "unknown system label");
    std::abort();
}

std::optional<NeoVariant> neo_variant(System s) {
    switch (s) {
        case System::kNeoHm: return NeoVariant::kHm;
        case System::kNeoPk: return NeoVariant::kPk;
        case System::kNeoBn: return NeoVariant::kBn;
        default: return std::nullopt;
    }
}

std::unique_ptr<Deployment> make_system(System s, const CommonParams& p) {
    if (std::optional<NeoVariant> v = neo_variant(s)) {
        NeoParams np;
        static_cast<CommonParams&>(np) = p;
        np.variant = *v;
        return make_neobft(np);
    }
    switch (s) {
        case System::kUnreplicated: return make_unreplicated(p);
        case System::kZyzzyva: return make_zyzzyva(p);
        case System::kZyzzyvaF: {
            // One faulty replica that ignores every message, client
            // requests included, so no request completes on the fast path.
            std::unique_ptr<Deployment> d = make_zyzzyva(p);
            d->network().set_node_muted(d->replica_ids().back(), true);
            return d;
        }
        case System::kPbft: return make_pbft(p);
        case System::kHotStuff: return make_hotstuff(p);
        case System::kMinBft: return make_minbft(p);
        default: break;
    }
    NEO_ASSERT_MSG(false, "unknown system");
    std::abort();
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
