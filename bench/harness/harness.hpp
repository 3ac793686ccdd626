// Benchmark harness: deployment factories for every protocol in the paper's
// evaluation and a closed-loop measurement driver (§6.2's methodology: "an
// increasing number of closed-loop clients", end-to-end latency and
// throughput observed by the clients).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "apps/state_machine.hpp"
#include "apps/ycsb.hpp"
#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "aom/keys.hpp"
#include "aom/receiver.hpp"
#include "crypto/identity.hpp"
#include "obs/auditor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "sim/network.hpp"

namespace neo::aom {
class ConfigService;
class SequencerSwitch;
struct SequencerConfig;
}  // namespace neo::aom
namespace neo::neobft {
class ShardClient;
}
namespace neo::scenario {
class ByzSequencer;
}

namespace neo::bench {

struct Measured {
    double throughput_ops = 0;  // committed ops per second of virtual time
    double p50_us = 0;
    double mean_us = 0;
    double p99_us = 0;
    double p999_us = 0;
    std::uint64_t completed = 0;
    /// Latency breakdown over the measurement window, expressed as
    /// aggregate simulator time per completed op: packet in-flight time
    /// (latency + jitter + serialisation), modelled CPU execution, and
    /// arrival-queue wait. These are system-wide shares (all nodes, all
    /// packets), so they need not sum to the end-to-end client latency.
    double net_us_per_op = 0;
    double cpu_us_per_op = 0;
    double queue_us_per_op = 0;
    /// Commit critical-path attribution over the measurement window's
    /// request spans (keys are the final "phase_*" metric names; empty
    /// when no request span completed inside the window). Deterministic:
    /// derived from the span stream, which is byte-identical across
    /// --sim-threads values.
    std::map<std::string, double> phase;
    /// Host-side footprint of that attribution (never serialized): the most
    /// requests the streaming analyzer held in flight at once, and the
    /// events the run's own spans-only sink stored (0: it streams them).
    std::size_t phase_live_peak = 0;
    std::size_t span_events_stored = 0;
};

/// A running system, and the scenario engine's Adapter onto it: it owns
/// every node; the driver only needs per-client invoke(). Topology (below)
/// is the one concrete deployment. A decorator may override just
/// simulator(), network(), n_clients() and invoke(); every other hook
/// defaults to "none" (and the scenario hooks to "unsupported").
class Deployment : public scenario::Adapter {
  public:
    virtual int n_clients() const = 0;
    virtual void invoke(int client, Bytes op, std::function<void(Bytes)> done) = 0;

    /// Replica instrumentation for the Table 1 reproduction.
    std::vector<NodeId> replica_ids() const override { return {}; }
    virtual crypto::CostMeter* replica_meter(NodeId) { return nullptr; }

    /// Sequencer failovers the config service performed (0 without one).
    virtual std::uint64_t failovers() const { return 0; }
    /// Drops client's in-flight cross-shard transaction without a decision
    /// (coordinator crash between prepare and commit). Sharded only.
    virtual bool abandon_coordinator(int) { return false; }

    /// Client-observed transaction outcome totals (sharded deployments;
    /// zero elsewhere). `committed_ops` counts single-key ops inside
    /// committed transactions — the aggregate-throughput numerator.
    struct TxnTotals {
        std::uint64_t txns_started = 0;
        std::uint64_t committed_txns = 0;
        std::uint64_t aborted_txns = 0;
        std::uint64_t committed_ops = 0;
        std::uint64_t cross_shard_txns = 0;
    };
    virtual TxnTotals txn_totals() const { return {}; }

    /// Observability hook: publishes this deployment's counters under
    /// `prefix` and, when `trace` is non-null, names every node's track.
    /// The base version covers the shared network counters.
    virtual void register_obs(obs::Registry& reg, const std::string& prefix,
                              obs::TraceSink* trace) {
        (void)trace;
        network().register_metrics(reg, prefix + ".net");
    }

    /// Online safety-invariant monitor. Topology sizes it (partitions + 1
    /// shards) and wires its replicas' reporting hooks, so commit/execute
    /// ordering is audited on EVERY bench and test run; run_closed_loop()
    /// finalizes it and aborts on any violation.
    obs::Auditor& auditor() { return auditor_; }

  protected:
    obs::Auditor auditor_;
};

/// Generates the operation a client issues next (k = per-client op index).
using OpGen = std::function<Bytes(int client, std::uint64_t k)>;

/// Fixed-size random-string echo ops (the §6.2 workload).
OpGen echo_ops(std::size_t size);

/// Runs every client closed-loop; latency/throughput measured over
/// [warmup, warmup+measure) of virtual time. `at_measure_start` (optional)
/// fires exactly when the measurement window opens — counter resets etc.
Measured run_closed_loop(Deployment& d, const OpGen& ops, sim::Time warmup, sim::Time measure,
                         const std::function<void()>& at_measure_start = nullptr);

/// Runs in client `c`'s completion context (possibly on a worker partition:
/// touch only c's own state) for each request it issued at `begin` that
/// completed at `end`, before the loop's deadline.
using OnDone = std::function<void(int client, sim::Time begin, sim::Time end)>;

/// The closed loop behind every driver: each client issues ops(c, 0),
/// ops(c, 1), ... back to back until `deadline`. Call from setup code, then
/// run the simulator.
void start_closed_loop(Deployment& d, OpGen ops, sim::Time deadline, OnDone on_done);

// ----------------------------------------------------------- observability

/// Per-process observability session for bench binaries.
///
/// Parses `--trace <path>` and `--metrics <path>` from argv (with
/// NEO_TRACE / NEO_METRICS environment fallback) and owns the trace sink
/// and the merged metrics snapshot. A bench binary attaches each run with
/// attach() (runs on worker threads attach concurrently; the session is
/// thread-safe); on destruction the session writes the requested files:
///  - metrics: one JSON object merging every attached run's counters,
///    namespaced by the run label ("neo_hm.c8.s42.replica.1.rx.request");
///  - trace: the FIRST run attached with want_trace=true (a process-wide
///    atomic claim), written as Chrome trace_event JSON — or JSONL when
///    the path ends in ".jsonl".
///
/// The metrics file carries a "meta" header (base seed, seed list,
/// sim_threads, git describe, build type) so archived artifacts are
/// self-describing.
class ObsSession {
  public:
    ObsSession(int argc, char* const* argv);
    ~ObsSession();

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    bool tracing() const { return !trace_path_.empty(); }
    bool metrics() const { return !metrics_path_.empty(); }
    bool enabled() const { return tracing() || metrics(); }

    /// Scoped run attachment. Holds the run's private registry; the
    /// destructor snapshots it into the session's merged metrics, so it
    /// must run while the run's nodes are still alive (declare the
    /// deployment/fixture FIRST, the attachment second). Movable so
    /// attach() can return it by value; default-constructed = no-op.
    class Attachment {
      public:
        Attachment() = default;
        Attachment(Attachment&& o) noexcept { *this = std::move(o); }
        Attachment& operator=(Attachment&& o) noexcept;
        ~Attachment() { detach(); }
        Attachment(const Attachment&) = delete;
        Attachment& operator=(const Attachment&) = delete;

        /// Snapshots the run's metrics now (idempotent).
        void detach();

      private:
        friend class ObsSession;
        ObsSession* s_ = nullptr;
        std::unique_ptr<obs::Registry> reg_;
        sim::Simulator* sim_ = nullptr;
        bool traced_ = false;
    };

    /// Attaches a run built on `sim`. `reg` is invoked immediately (on the
    /// calling thread) to register the run's collectors; when this run wins
    /// the trace claim, the sink is passed through non-null so `reg` can
    /// name the trace tracks. Thread-safe; returns an inert attachment when
    /// neither --trace nor --metrics was requested.
    Attachment attach(sim::Simulator& sim, const std::string& label, bool want_trace,
                      const std::function<void(obs::Registry&, obs::TraceSink*)>& reg);
    /// Deployment convenience: forwards to Deployment::register_obs with
    /// `label` as the metrics prefix.
    Attachment attach(Deployment& d, const std::string& label, bool want_trace = true);

    obs::TraceSink* sink() { return tracing() ? &sink_ : nullptr; }

    /// Writes the metrics / trace files now (also done by the destructor).
    /// Call only after every attachment is detached and worker threads
    /// joined.
    void flush();

  private:
    std::string trace_path_;
    std::string metrics_path_;
    obs::TraceSink sink_;
    std::mutex merge_m_;
    std::map<std::string, double> merged_;
    std::atomic<bool> trace_claimed_{false};
    bool flushed_ = false;
    // Run parameters echoed into the metrics file's "meta" header.
    std::uint64_t meta_seed_ = 42;
    int meta_seeds_ = 1;
    unsigned meta_sim_threads_ = 1;
};

// --------------------------------------------------------------- factories

struct CommonParams {
    int n_replicas = 4;
    int n_clients = 8;
    crypto::CryptoMode crypto_mode = crypto::CryptoMode::kModeled;
    std::uint64_t seed = 42;
    /// Simulator worker partitions (PDES). 1 = serial engine. Simulated
    /// results are byte-identical for every value; only host time changes.
    unsigned sim_threads = 1;
    double drop_rate = 0.0;
    /// Adaptive-batching bounds for the baselines' leader batcher: cap on
    /// the load-tracked seal threshold, and the latency budget bounding the
    /// oldest request's wait (see sim::AdaptiveBatchController).
    std::size_t batch_max = 16;
    sim::Time batch_delay = 100 * sim::kMicrosecond;
    /// PDES placement-policy override (node id -> host partition). Empty =
    /// the deployment's default (id % nparts; group-affine for sharded
    /// deployments). Placement is host-locality only — simulated results
    /// are byte-identical for every policy (test_placement).
    sim::Simulator::PlacementFn placement;
    /// Replica application for NeoBFT (stateful, undo-capable).
    std::function<std::unique_ptr<app::StateMachine>()> app_factory;
    /// Replica application for the baselines (one closure per replica).
    std::function<std::function<Bytes(BytesView)>()> baseline_app_factory;
};

enum class NeoVariant { kHm, kPk, kBn };

struct NeoParams : CommonParams {
    NeoVariant variant = NeoVariant::kHm;
    /// Fig 8's EC2-style software sequencer profile.
    bool software_sequencer = false;
    /// aom receiver knobs (gap timeout, confirm batching) — ablations.
    aom::ReceiverOptions receiver{};
    /// State-sync period (§B.2) — ablations.
    std::uint64_t sync_interval = 128;
    /// Replica checkpoint cadence (slots); 0 disables checkpointing and
    /// log GC (the perf-figure default). Scenario runs set it so the
    /// crash-recover lifecycle exercises checkpoint fetch.
    std::uint64_t checkpoint_interval = 0;
    /// Build the sequencer switches as scenario::ByzSequencer so the
    /// scenario engine can inject drop/duplicate/corrupt/strip-sig faults.
    bool byz_sequencer = false;
};

std::unique_ptr<Deployment> make_neobft(const NeoParams& p);

/// Multi-group sharded NeoBFT: `n_shards` independent sequencer groups, each
/// a full NeoBFT replica group serving a contiguous slice of the key-hash
/// space, fronted by per-client cross-shard 2PC coordinators
/// (neobft::ShardClient). PDES placement is group-affine: a shard's
/// replicas and home switch share a partition, as do all child clients of
/// one logical client.
struct ShardParams : CommonParams {
    int n_shards = 2;
    NeoVariant variant = NeoVariant::kHm;
    aom::ReceiverOptions receiver{};
    std::uint64_t sync_interval = 128;
    /// Every replica's kv store is pre-loaded with this dataset (shared key
    /// space; routing decides which keys each shard actually serves).
    /// record_count = 0 skips the preload.
    app::YcsbConfig dataset{10'000, 32, 0.5, 0.99};
    /// Test hook: every replica of this shard runs the forged-prepare
    /// equivocation double (claims PREPARED, stages nothing); -1 = honest.
    int byzantine_prepare_shard = -1;
    /// 2PC liveness knobs, plumbed into every replica's KvStateMachine.
    /// Defaults match the fixed protocol; regression tests flip them to
    /// reproduce the pre-fix livelock / lock-leak behaviour.
    bool wait_die = true;
    std::uint64_t presumed_abort_after = 50'000;
};
std::unique_ptr<Deployment> make_sharded_neobft(const ShardParams& p);

/// Multi-key YCSB transaction workload for sharded deployments: each op is
/// a serialized kTxnLocal KvTxnOp whose keys are drawn zipfian and redrawn
/// so `cross_shard_ratio` of transactions span >= 2 shards. Per-client
/// generator state is touched only from that client's partition, so the
/// stream stays byte-identical across --sim-threads values.
struct ShardTxnWorkload {
    int n_shards = 2;
    double cross_shard_ratio = 0.0;
    std::size_t ops_per_txn = 4;
    std::uint64_t seed = 42;
    app::YcsbConfig dataset{10'000, 32, 0.5, 0.99};
};
OpGen sharded_txn_ops(const ShardTxnWorkload& w, int n_clients);

// ----------------------------------------------------------------- systems

/// The systems of the paper's evaluation (§6: Fig 7, Fig 10, Table 1), in
/// the order the figures list them.
enum class System {
    kUnreplicated,
    kNeoHm,
    kNeoPk,
    kNeoBn,
    kZyzzyva,
    kZyzzyvaF,  // Zyzzyva with its last replica muted (Network::set_node_muted)
    kPbft,
    kHotStuff,
    kMinBft,
};
inline constexpr System kAllSystems[] = {
    System::kUnreplicated, System::kNeoHm, System::kNeoPk,    System::kNeoBn,  System::kZyzzyva,
    System::kZyzzyvaF,     System::kPbft,  System::kHotStuff, System::kMinBft,
};

/// The name figures print ("Neo-HM").
const char* system_name(System s);
/// The suite point-name prefix ("neo_hm").
const char* system_label(System s);
/// The system labelled `label`; aborts on an unknown label.
System system_from_label(const std::string& label);
/// The aom variant of the three Neo systems; nullopt for the rest.
std::optional<NeoVariant> neo_variant(System s);

/// Builds system `s` from the shared knobs. The Neo systems are make_neobft
/// over a NeoParams copy of `p` with `variant` set. MinBFT uses 2f+1
/// replicas: `n_replicas` is read as f's 3f+1 equivalent (n=4 -> f=1 -> 3
/// replicas), so sweeps stay uniform.
std::unique_ptr<Deployment> make_system(System s, const CommonParams& p);

// ---------------------------------------------------------- deployment core

/// The one concrete Deployment. It owns the plumbing every protocol shares:
/// the simulator and its placement, the network, the trust root, the aom key
/// service, the auditor, the sequencer switches and config service, and the
/// per-replica hooks (cost meter, equivocate, crash/recover). It names every
/// node's trace track and metrics from the node id. Each make_* factory
/// supplies only its protocol's replicas and clients.
class Topology final : public Deployment {
  public:
    /// Node id layout shared by every protocol. Ids below kConfigId are
    /// replicas; switch s is kSwitchBase + s; clients start at kClientBase.
    static constexpr NodeId kReplicaBase = 1;
    static constexpr NodeId kConfigId = 900;
    static constexpr NodeId kSwitchBase = 910;
    static constexpr NodeId kServerId = 950;
    static constexpr NodeId kClientBase = 1'000;

    /// Builds the plumbing from `p`: the simulator (placement p.placement,
    /// else `default_placement`, else id % nparts), the network (datacenter
    /// link, p.drop_rate), the trust root, the auditor and, with `aom`, the
    /// aom key service.
    Topology(const CommonParams& p, bool aom,
             sim::Simulator::PlacementFn default_placement = nullptr);
    ~Topology() override;

    sim::Simulator& simulator() override { return sim_; }
    sim::Network& network() override { return net_; }
    int n_clients() const override { return static_cast<int>(clients_.size()); }
    void invoke(int client, Bytes op, std::function<void(Bytes)> done) override {
        const ClientSlot& c = clients_[static_cast<std::size_t>(client)];
        c.invoke(c.self, std::move(op), std::move(done));
    }

    std::vector<NodeId> replica_ids() const override;
    crypto::CostMeter* replica_meter(NodeId id) override;
    bool crash(NodeId id) override { return set_crashed(id, true); }
    bool recover(NodeId id) override { return set_crashed(id, false); }
    bool set_equivocate(NodeId id, bool on) override;
    /// kSeqStall stalls switch 0, the first group's home sequencer, so the
    /// config service fails the group over to a standby; the Byzantine
    /// faults apply to every ByzSequencer switch.
    bool sequencer_fault(const SeqFault& f) override;
    std::uint64_t failovers() const override;
    bool abandon_coordinator(int client) override;
    TxnTotals txn_totals() const override;
    void register_obs(obs::Registry& reg, const std::string& prefix,
                      obs::TraceSink* trace) override;

    // ---- building (setup code only, in the order the nodes should attach)

    std::unique_ptr<crypto::NodeCrypto> provision(NodeId id) { return root_.provision(id); }
    aom::AomKeyService* keys() { return keys_ ? &*keys_ : nullptr; }

    /// Keeps `obj` alive until teardown, which runs in reverse order.
    template <typename T>
    T& adopt(std::unique_ptr<T> obj) {
        T& ref = *obj;
        owned_.emplace_back(std::move(obj));
        return ref;
    }
    /// Adopts `node` and attaches it to the network as `id`.
    template <typename N>
    N& add_node(std::unique_ptr<N> node, NodeId id) {
        N& ref = adopt(std::move(node));
        net_.add_node(ref, id);
        ids_.push_back(id);
        return ref;
    }
    /// Registers node `id`'s counters: `fn(reg, key)` runs at register_obs
    /// time with the node's metrics key.
    void add_metrics(NodeId id,
                     std::function<void(obs::Registry&, const std::string& key)> fn) {
        metrics_.emplace_back(id, std::move(fn));
    }
    /// Adds a replica: audited, cost-metered, with its metrics and the
    /// scenario hooks its type has (crash/recover only where it defines
    /// recover()).
    template <typename R>
    R& add_replica(std::unique_ptr<R> replica, NodeId id) {
        R& r = *replica;
        r.set_auditor(&auditor_);
        ReplicaHooks h{id, &r.node_crypto().meter(), [&r](bool on) { r.set_equivocate(on); },
                       nullptr};
        if constexpr (requires(R& x) { x.recover(); }) {
            h.set_crashed = [&r](bool down) { down ? r.crash() : r.recover(); };
        }
        replicas_.push_back(std::move(h));
        add_metrics(id, [&r](obs::Registry& reg, const std::string& key) {
            r.register_metrics(reg, key);
        });
        return add_node(std::move(replica), id);
    }
    /// Adds a client node the driver invokes (client index = order added).
    template <typename C>
    C& add_client(std::unique_ptr<C> client, NodeId id) {
        clients_.push_back({client.get(), &invoke_client<C>});
        return add_node(std::move(client), id);
    }
    /// Adds a cross-shard 2PC coordinator the driver invokes (it drives
    /// child client nodes added with add_node).
    void add_coordinator(std::unique_ptr<neobft::ShardClient> coordinator);
    /// Adds `count` sequencer switches (ByzSequencer when `byz`) and the
    /// config service over them; returns the service.
    aom::ConfigService& add_sequencers(int count, const aom::SequencerConfig& cfg, bool byz);

  private:
    /// A client behind a plain function pointer: invoke() costs no
    /// std::function hop.
    struct ClientSlot {
        void* self;
        void (*invoke)(void*, Bytes, std::function<void(Bytes)>);
    };
    template <typename C>
    static void invoke_client(void* self, Bytes op, std::function<void(Bytes)> done) {
        static_cast<C*>(self)->invoke(std::move(op), std::move(done));
    }

    struct ReplicaHooks {
        NodeId id;
        crypto::CostMeter* meter;
        std::function<void(bool)> set_equivocate;
        std::function<void(bool)> set_crashed;  // empty: no recovery lifecycle
    };
    ReplicaHooks* find_replica(NodeId id);
    bool set_crashed(NodeId id, bool down);

    sim::Simulator sim_;
    sim::Network net_;
    crypto::TrustRoot root_;
    std::optional<aom::AomKeyService> keys_;
    std::vector<std::shared_ptr<void>> owned_;  // in adoption order
    std::vector<NodeId> ids_;                   // every attached node
    std::vector<std::pair<NodeId, std::function<void(obs::Registry&, const std::string&)>>>
        metrics_;
    std::vector<ReplicaHooks> replicas_;
    std::vector<ClientSlot> clients_;
    std::vector<aom::SequencerSwitch*> switches_;
    std::vector<scenario::ByzSequencer*> byz_switches_;
    aom::ConfigService* config_ = nullptr;
    std::vector<neobft::ShardClient*> coordinators_;
};

/// The aom group of one NeoBFT replica group: `variant`'s authentication
/// and network trust, f = (n - 1) / 3 over `receivers`.
aom::GroupConfig neo_group(NeoVariant variant, GroupId group, std::vector<NodeId> receivers);

// ------------------------------------------------------------------ output

/// Aligned table printer for figure-style output.
class TablePrinter {
  public:
    explicit TablePrinter(std::vector<std::string> columns);
    void row(const std::vector<std::string>& cells);

  private:
    std::vector<std::size_t> widths_;
};

std::string fmt_double(double v, int precision = 1);

/// Measured -> metric map for the runner's BENCH_*.json points (the Fig 7
/// column set: throughput, latency percentiles, net/cpu/queue breakdown,
/// plus the non-gating phase_* critical-path attribution).
std::map<std::string, double> measured_metrics(const Measured& m);

/// Build provenance baked in at configure time (NEO_GIT_DESCRIBE /
/// NEO_BUILD_TYPE compile definitions); recorded in every suite/metrics
/// JSON meta header so archived BENCH_*.json artifacts are self-describing.
const char* build_git_describe();
const char* build_type_name();

class Json;
/// The shared "meta" header object (base_seed, build_type, git_describe,
/// seeds list, sim_threads) written into both the suite JSON and the
/// --metrics JSON. Deliberately excludes --jobs: scheduling must never
/// change output bytes (test_parallel_determinism).
Json run_meta_json(std::uint64_t base_seed, int seeds, unsigned sim_threads);

}  // namespace neo::bench
