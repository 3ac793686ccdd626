#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>

#include "apps/kvstore.hpp"
#include "apps/state_machine.hpp"
#include "apps/ycsb.hpp"
#include "common/rng.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using neo::Bytes;
using neo::BytesView;
using neo::NodeId;
namespace bench = neo::bench;
namespace sim = neo::sim;
using sim::kMillisecond;

namespace {

// ycsb-2pc's key space: 10k records of 32 B, 50% reads, zipf 0.99.
const neo::app::YcsbConfig kDataset{10'000, 32, 0.5, 0.99};
constexpr double kCrossShardRatio = 0.05;
constexpr std::size_t kOpsPerTxn = 4;
constexpr std::size_t kEchoBytes = 64;
// Instants the outage metric averages over when no fault is injected.
constexpr int kOutageInstants = 64;

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
    using neo::bench::NeoVariant;
    using neo::crypto::CryptoMode;
    // name, loop, app, variant, crypto, clients, shards,
    // warmup, measure, drain [, drop rate, open-loop rate, fault time].
    static const std::vector<WorkloadSpec> specs = {
        {"echo-hm", Loop::kClosed, AppKind::kEcho, NeoVariant::kHm, CryptoMode::kModeled, 32, 0,
         5 * kMillisecond, 40 * kMillisecond, 2 * kMillisecond},
        {"echo-pk-real", Loop::kClosed, AppKind::kEcho, NeoVariant::kPk, CryptoMode::kReal, 32, 0,
         2 * kMillisecond, 8 * kMillisecond, 2 * kMillisecond},
        {"ycsb-2pc", Loop::kClosed, AppKind::kTxn, NeoVariant::kHm, CryptoMode::kModeled, 32, 4,
         5 * kMillisecond, 40 * kMillisecond, 20 * kMillisecond},
        {"failover-open", Loop::kOpen, AppKind::kEcho, NeoVariant::kHm, CryptoMode::kModeled, 64,
         0, 5 * kMillisecond, 200 * kMillisecond, 100 * kMillisecond, 0.001, 100'000.0,
         20 * kMillisecond},
    };
    return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
    for (const WorkloadSpec& w : workloads()) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

namespace {

// ------------------------------------------------------------- app decorator

struct AppCounts {
    std::atomic<std::uint64_t> executes{0};
    std::atomic<std::uint64_t> undos{0};
};

/// StateMachine decorator handed to NeoParams::app_factory: counts
/// executions and undos, and in a traced run times every execute().
class CountingApp : public neo::app::StateMachine {
  public:
    CountingApp(std::unique_ptr<neo::app::StateMachine> inner, AppCounts* counts,
                HostSpans* spans)
        : inner_(std::move(inner)), counts_(counts), spans_(spans) {}

    void set_txn_observer(TxnObserver obs) override { inner_->set_txn_observer(std::move(obs)); }
    Bytes execute(BytesView op) override {
        counts_->executes.fetch_add(1, std::memory_order_relaxed);
        if (!spans_->enabled()) return inner_->execute(op);
        const std::int64_t t0 = host_ns();
        Bytes out = inner_->execute(op);
        spans_->add_hot(Hot::kAppExecute, host_ns() - t0);
        return out;
    }
    void undo_last() override {
        counts_->undos.fetch_add(1, std::memory_order_relaxed);
        inner_->undo_last();
    }
    void commit_prefix(std::uint64_t n) override { inner_->commit_prefix(n); }
    std::int64_t execute_cost_ns(BytesView op) const override {
        return inner_->execute_cost_ns(op);
    }
    Bytes snapshot() const override { return inner_->snapshot(); }
    void restore(BytesView snap) override { inner_->restore(snap); }

  private:
    std::unique_ptr<neo::app::StateMachine> inner_;
    AppCounts* counts_;
    HostSpans* spans_;
};

// ---------------------------------------------------------- checked replies

enum class Outcome : std::uint8_t { kCommitted, kAborted, kWrong };

struct Rec {
    std::int64_t due = 0;
    std::int64_t done = 0;
    Outcome outcome = Outcome::kCommitted;
};

/// Per-client slots: a client's callbacks run on its own partition, so
/// clients never share a slot (the run_closed_loop discipline).
struct ClientLedger {
    std::uint64_t attempted = 0;
    std::vector<Rec> recs;
};

/// Deployment decorator that checks every reply before passing it on:
/// an echo reply must equal its request byte for byte; a transaction reply
/// must decode to a committed or aborted KvResult. Its own auditor stays
/// unconfigured, so run_closed_loop leaves the audit to the benchmark,
/// which times it separately on the wrapped deployment's auditor.
class CheckedDeployment : public bench::Deployment {
  public:
    CheckedDeployment(bench::Deployment& inner, AppKind app)
        : inner_(inner), app_(app), ledgers_(static_cast<std::size_t>(inner.n_clients())) {}

    sim::Simulator& simulator() override { return inner_.simulator(); }
    sim::Network& network() override { return inner_.network(); }
    int n_clients() const override { return inner_.n_clients(); }
    void invoke(int client, Bytes op, std::function<void(Bytes)> done) override {
        invoke_due(client, std::move(op), inner_.simulator().now(), std::move(done));
    }

    /// invoke() for a request that was due at `due` (open loop).
    void invoke_due(int client, Bytes op, std::int64_t due, std::function<void(Bytes)> done) {
        ClientLedger& l = ledgers_[static_cast<std::size_t>(client)];
        ++l.attempted;
        Bytes expect = app_ == AppKind::kEcho ? op : Bytes{};
        inner_.invoke(client, std::move(op),
                      [this, &l, due, expect = std::move(expect), done = std::move(done)](
                          Bytes reply) {
                          l.recs.push_back({due, inner_.simulator().now(), classify(expect, reply)});
                          done(std::move(reply));
                      });
    }

    const std::vector<ClientLedger>& ledgers() const { return ledgers_; }

  private:
    Outcome classify(const Bytes& expect, const Bytes& reply) const {
        if (app_ == AppKind::kEcho) return reply == expect ? Outcome::kCommitted : Outcome::kWrong;
        auto r = neo::app::KvResult::parse(reply);
        if (!r) return Outcome::kWrong;
        if (r->status == neo::app::KvStatus::kOk) return Outcome::kCommitted;
        if (r->status == neo::app::KvStatus::kTxnAborted) return Outcome::kAborted;
        return Outcome::kWrong;
    }

    bench::Deployment& inner_;
    AppKind app_;
    std::vector<ClientLedger> ledgers_;
};

// --------------------------------------------------------------- factories

std::unique_ptr<bench::Deployment> make_deployment(const WorkloadSpec& w, std::uint64_t seed,
                                                   AppCounts* counts, HostSpans* spans) {
    if (w.shards > 0) {
        bench::ShardParams p;
        p.n_shards = w.shards;
        p.n_clients = w.clients;
        p.variant = w.variant;
        p.crypto_mode = w.crypto;
        p.seed = seed;
        p.drop_rate = w.drop_rate;
        p.dataset = kDataset;
        return bench::make_sharded_neobft(p);
    }
    bench::NeoParams p;
    p.variant = w.variant;
    p.n_clients = w.clients;
    p.crypto_mode = w.crypto;
    p.seed = seed;
    p.drop_rate = w.drop_rate;
    p.app_factory = [counts, spans] {
        return std::make_unique<CountingApp>(std::make_unique<neo::app::EchoApp>(), counts, spans);
    };
    return bench::make_neobft(p);
}

/// Seeded echo payloads: op k of client c is a pure function of (seed, c, k).
bench::OpGen seeded_echo_ops(std::uint64_t seed) {
    return [seed](int client, std::uint64_t k) {
        neo::StreamRng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(client),
                           0xec5e0000u ^ k);
        return rng.bytes(kEchoBytes);
    };
}

/// Node id of the track a deployment names `name` in register_obs (the
/// deployment's public naming of its nodes), read back from the Chrome
/// export of an otherwise empty sink. kInvalidNode if absent.
NodeId find_named_node(bench::Deployment& d, const std::string& name) {
    neo::obs::Registry scratch;
    neo::obs::TraceSink names;
    d.register_obs(scratch, "lookup", &names);
    std::ostringstream os;
    names.write_chrome_trace(os);
    const std::string s = os.str();
    const std::size_t at = s.find("\"args\":{\"name\":\"" + name + "\"}");
    if (at == std::string::npos) return neo::kInvalidNode;
    const std::size_t tid = s.rfind("\"tid\":", at);
    if (tid == std::string::npos) return neo::kInvalidNode;
    return static_cast<NodeId>(std::stoul(s.substr(tid + 6)));
}

/// Open-loop generator: one request due every 1/rate of virtual time,
/// queued FIFO for the first free client of the pool. Runs on the serial
/// engine (arrivals are global events).
class OpenLoop {
  public:
    OpenLoop(CheckedDeployment& d, const bench::OpGen& ops, sim::Time interval,
             sim::Time measure_from, sim::Time deadline)
        : d_(d), ops_(ops), interval_(interval), from_(measure_from), deadline_(deadline) {
        for (int c = d.n_clients() - 1; c >= 0; --c) free_.push_back(c);
    }

    void start() { schedule(0); }
    std::uint64_t generated() const { return generated_; }
    std::size_t queued() const { return backlog_.size(); }
    double mean_late_us() const {
        return late_n_ == 0 ? 0.0 : late_ns_ / 1000.0 / static_cast<double>(late_n_);
    }

  private:
    struct Due {
        std::uint64_t idx;
        sim::Time due;
    };

    void schedule(sim::Time t) {
        d_.simulator().at_global(t, [this, t] {
            backlog_.push_back({generated_++, t});
            if (!free_.empty()) {
                int c = free_.back();
                free_.pop_back();
                dispatch(c);
            }
            if (t + interval_ < deadline_) schedule(t + interval_);
        });
    }

    void dispatch(int c) {
        Due r = backlog_.front();
        backlog_.pop_front();
        const sim::Time now = d_.simulator().now();
        if (r.due >= from_ && r.due < deadline_) {
            late_ns_ += static_cast<double>(now - r.due);
            ++late_n_;
        }
        d_.invoke_due(c, ops_(c, r.idx), r.due, [this, c](Bytes) {
            if (backlog_.empty()) {
                free_.push_back(c);
            } else {
                dispatch(c);
            }
        });
    }

    CheckedDeployment& d_;
    const bench::OpGen& ops_;
    sim::Time interval_;
    sim::Time from_;
    sim::Time deadline_;
    std::deque<Due> backlog_;
    std::vector<int> free_;
    std::uint64_t generated_ = 0;
    double late_ns_ = 0;
    std::uint64_t late_n_ = 0;
};

double secs(std::int64_t from_ns, std::int64_t to_ns) {
    return static_cast<double>(to_ns - from_ns) * 1e-9;
}

bool ends_with(const std::string& k, const std::string& suffix) {
    return k.size() >= suffix.size() &&
           k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Sum / maximum of every registry value whose key ends with `suffix`.
double sum_suffix(const std::map<std::string, double>& reg, const std::string& suffix) {
    double total = 0;
    for (const auto& [k, v] : reg) {
        if (ends_with(k, suffix)) total += v;
    }
    return total;
}
double max_suffix(const std::map<std::string, double>& reg, const std::string& suffix) {
    double m = 0;
    for (const auto& [k, v] : reg) {
        if (ends_with(k, suffix)) m = std::max(m, v);
    }
    return m;
}

/// The program's counters after a run, through public accessors only: the
/// registry register_obs filled, engine and network totals, replica cost
/// meters, failovers, transaction totals and the app decorator's counts.
std::map<std::string, double> read_counters(bench::Deployment& d, neo::obs::Registry& reg,
                                            const AppCounts& app) {
    std::map<std::string, double> snap = reg.snapshot();
    std::map<std::string, double> c;
    for (const auto& [k, v] : snap) c["reg." + k] = v;
    c["sim.executed_events"] = static_cast<double>(d.simulator().executed_events());
    c["net.packets_sent"] = static_cast<double>(d.network().packets_sent());
    c["net.bytes_sent"] = static_cast<double>(d.network().bytes_sent());
    c["net.packets_dropped"] = static_cast<double>(d.network().packets_dropped());
    c["aom.sequenced"] = sum_suffix(snap, ".packets_sequenced");
    c["aom.signatures_generated"] = sum_suffix(snap, ".signatures_generated");
    c["aom.signatures_skipped"] = sum_suffix(snap, ".signatures_skipped");
    c["aom.drop_notices"] = sum_suffix(snap, ".aom.delivered_drops");
    c["aom.rejected"] = sum_suffix(snap, ".aom.rejected_packets");
    c["aom.failovers"] = static_cast<double>(d.failovers());
    c["neobft.replicas"] = static_cast<double>(d.replica_ids().size());
    c["neobft.executed"] = sum_suffix(snap, ".requests_executed");
    c["neobft.rollbacks"] = sum_suffix(snap, ".rollbacks");
    c["neobft.gap_agreements"] = sum_suffix(snap, ".gap_agreements_started");
    // Every replica of a group starts the same view change: count it once.
    c["neobft.view_changes"] = max_suffix(snap, ".view_changes_started");
    c["neobft.syncs"] = sum_suffix(snap, ".syncs_completed");
    std::uint64_t signs = 0, verifies = 0, macs = 0, hashes = 0;
    for (NodeId r : d.replica_ids()) {
        if (const neo::crypto::CostMeter* m = d.replica_meter(r)) {
            signs += m->signs;
            verifies += m->verifies;
            macs += m->macs;
            hashes += m->hashes;
        }
    }
    c["crypto.signs"] = static_cast<double>(signs);
    c["crypto.verifies"] = static_cast<double>(verifies);
    c["crypto.macs"] = static_cast<double>(macs);
    c["crypto.hashes"] = static_cast<double>(hashes);
    c["apps.executes"] = static_cast<double>(app.executes.load());
    c["apps.undos"] = static_cast<double>(app.undos.load());
    const bench::Deployment::TxnTotals tx = d.txn_totals();
    c["txn.started"] = static_cast<double>(tx.txns_started);
    c["txn.committed"] = static_cast<double>(tx.committed_txns);
    c["txn.aborted"] = static_cast<double>(tx.aborted_txns);
    c["txn.cross_shard"] = static_cast<double>(tx.cross_shard_txns);
    return c;
}

}  // namespace

Iteration run_iteration(const WorkloadSpec& w, std::uint64_t seed, HostSpans& spans,
                        OpCapture* capture) {
    Iteration it;
    const bool traced = spans.enabled();
    SpanScope iter_span(spans, "iteration");

    // ---- set-up: the make_* factory (keys, QTables, preload).
    AppCounts app_counts;
    std::unique_ptr<bench::Deployment> d;
    {
        SpanScope s(spans, w.shards > 0 ? "harness.make_sharded_neobft" : "harness.make_neobft");
        const std::int64_t t0 = host_ns();
        d = make_deployment(w, seed, &app_counts, &spans);
        it.setup_s = secs(t0, host_ns());
    }
    neo::obs::Registry reg;
    d->register_obs(reg, "d", nullptr);
    NodeId sequencer = neo::kInvalidNode;
    if (w.fault_at > 0) {
        sequencer = find_named_node(*d, "sequencer 0");
        if (sequencer == neo::kInvalidNode) it.errors.push_back("no node named 'sequencer 0'");
    }

    CheckedDeployment cd(*d, w.app);
    sim::Simulator& sim = d->simulator();
    const sim::Time measure_from = w.warmup;
    const sim::Time deadline = w.warmup + w.measure;

    // ---- inputs: seeded op generators, timed (and captured) when traced.
    bench::OpGen base = w.app == AppKind::kEcho
                            ? seeded_echo_ops(seed)
                            : bench::sharded_txn_ops(
                                  {w.shards, kCrossShardRatio, kOpsPerTxn, seed, kDataset},
                                  w.clients);
    if (capture != nullptr) capture->assign(static_cast<std::size_t>(w.clients), {});
    bench::OpGen ops = [&](int c, std::uint64_t k) {
        if (!traced) return base(c, k);
        const std::int64_t t0 = host_ns();
        Bytes op = base(c, k);
        spans.add_hot(Hot::kOpGen, host_ns() - t0);
        if (capture != nullptr) (*capture)[static_cast<std::size_t>(c)].push_back(op);
        return op;
    };

    // ---- run. Both loops leave the same event marks in traced and
    // untraced runs: only host-side timing differs.
    std::int64_t engine_end_ns = 0;
    sim.at_global(deadline - 1, [&engine_end_ns] { engine_end_ns = host_ns(); });
    // Released inside the timed region, as run_closed_loop frees its own.
    auto span_sink = std::make_unique<neo::obs::TraceSink>();
    span_sink->set_kind_mask(neo::obs::kSpanKindMask);
    double net_us = 0, cpu_us = 0, queue_us = 0;
    double measured_p50 = -1, measured_p99 = -1;
    std::unique_ptr<OpenLoop> open;

    const std::int64_t run_t0 = host_ns();
    if (w.loop == Loop::kClosed) {
        SpanScope s(spans, "harness.run_closed_loop");
        // A traced run hands run_closed_loop a spans-only sink of its own so
        // the span events can be counted; untraced, it makes its own.
        if (traced) sim.set_trace(span_sink.get());
        bench::Measured m = bench::run_closed_loop(cd, ops, w.warmup, w.measure);
        if (traced) sim.set_trace(nullptr);
        it.span_events = span_sink->size();
        span_sink.reset();
        const std::int64_t run_t1 = host_ns();
        it.run_s = secs(run_t0, run_t1);
        it.engine_s = secs(run_t0, engine_end_ns);
        it.critical_path_s = secs(engine_end_ns, run_t1);
        spans.add("sim.run_until", run_t0, engine_end_ns);
        spans.add("obs.critical_path", engine_end_ns, run_t1);
        const double n = static_cast<double>(m.completed);
        net_us = m.net_us_per_op * n;
        cpu_us = m.cpu_us_per_op * n;
        queue_us = m.queue_us_per_op * n;
        measured_p50 = m.p50_us;
        measured_p99 = m.p99_us;
    } else {
        SpanScope s(spans, "harness.open_loop");
        // Mirrors run_closed_loop: spans buffered for critical-path analysis.
        sim.set_trace(span_sink.get());
        struct Base {
            sim::Time net = 0, cpu = 0, queue = 0;
        } base_at;
        sim.at_global(measure_from, [&] {
            base_at = {d->network().transit_time(), d->network().total_cpu_busy(),
                       d->network().total_queue_wait()};
        });
        if (w.fault_at > 0) {
            sim.at_global(w.fault_at,
                          [&d, sequencer] { d->network().set_node_down(sequencer, true); });
        }
        open = std::make_unique<OpenLoop>(
            cd, ops, static_cast<sim::Time>(1e9 / w.open_rate_per_s), measure_from, deadline);
        open->start();
        {
            SpanScope r(spans, "sim.run_until");
            sim.run_until(deadline);
        }
        sim.set_trace(nullptr);
        net_us = sim::to_us(d->network().transit_time() - base_at.net);
        cpu_us = sim::to_us(d->network().total_cpu_busy() - base_at.cpu);
        queue_us = sim::to_us(d->network().total_queue_wait() - base_at.queue);
        it.backlog_end = open->queued();
        const std::int64_t t_an = host_ns();
        {
            SpanScope a(spans, "obs.analyze_trace");
            neo::obs::CriticalPathReport rep = neo::obs::analyze_trace(*span_sink);
            if (rep.requests == 0) it.errors.push_back("critical-path analysis found no request");
            it.span_events = span_sink->size();
            span_sink.reset();
        }
        const std::int64_t run_t1 = host_ns();
        it.run_s = secs(run_t0, run_t1);
        it.engine_s = secs(run_t0, t_an);
        it.critical_path_s = secs(t_an, run_t1);
    }

    // ---- drain: no new requests; outstanding ones may still commit.
    {
        SpanScope s(spans, "sim.run_until");
        const std::int64_t t0 = host_ns();
        sim.run_until(deadline + w.drain);
        it.drain_s = secs(t0, host_ns());
        it.engine_s += it.drain_s;
    }

    // ---- audit.
    {
        SpanScope s(spans, "obs.auditor");
        const std::int64_t t0 = host_ns();
        neo::obs::Auditor& aud = d->auditor();
        aud.finalize();
        aud.report(nullptr);
        it.audit_s = secs(t0, host_ns());
        if (!aud.ok()) it.errors.push_back("auditor did not end ok()");
        for (const auto& v : aud.violations()) it.errors.push_back("auditor: " + v.to_string());
    }
    if (traced) {
        it.opgen = spans.take_hot(Hot::kOpGen);
        it.exec = spans.take_hot(Hot::kAppExecute);
    }

    // ---- outcomes: every attempted op lands in exactly one bucket.
    std::vector<Completion> committed;
    std::vector<double> lat_us;
    std::uint64_t window_commits = 0;
    for (const ClientLedger& l : cd.ledgers()) {
        it.tally.attempted += l.attempted;
        it.tally.uncommitted += l.attempted - l.recs.size();
        for (const Rec& r : l.recs) {
            if (r.outcome == Outcome::kWrong) {
                ++it.tally.wrong;
                continue;
            }
            if (r.outcome == Outcome::kAborted) {
                ++it.tally.aborted;
                continue;
            }
            ++it.tally.committed;
            committed.push_back({r.due, r.done});
            // Closed loop: run_closed_loop's window rule (issued and done
            // inside it). Open loop: every request due inside the window,
            // timed from when it was due, however late it committed.
            const bool sample = w.loop == Loop::kClosed
                                    ? (r.due >= measure_from && r.done < deadline)
                                    : (r.due >= measure_from && r.due < deadline);
            if (sample) lat_us.push_back(sim::to_us(r.done - r.due));
            if (r.done >= measure_from && r.done < deadline) ++window_commits;
        }
    }
    if (open) {
        // Requests due but never handed to a client were attempted too.
        const std::uint64_t never_sent = open->generated() - it.tally.attempted;
        it.tally.attempted += never_sent;
        it.tally.uncommitted += never_sent;
        it.gen_late_us = open->mean_late_us();
    }
    if (it.tally.errors() > 0) {
        it.errors.push_back(std::to_string(it.tally.wrong) + " wrong replies, " +
                            std::to_string(it.tally.uncommitted) + " ops uncommitted after the drain");
    }

    std::sort(lat_us.begin(), lat_us.end());
    const std::size_t n = lat_us.size();
    FreshCommitIndex fresh(std::move(committed));
    std::optional<double> outage_ns =
        w.fault_at > 0 ? fresh.mean_after({w.fault_at})
                       : fresh.mean_after(even_instants(measure_from, deadline, kOutageInstants));
    if (!outage_ns) it.errors.push_back("service never resumed after an outage instant");
    it.outage_ns = outage_ns.value_or(0);
    it.window_commits = window_commits;

    const double p50 = percentile_sorted(lat_us, 50);
    const double p99 = percentile_sorted(lat_us, 99);
    if (w.app == AppKind::kEcho && w.loop == Loop::kClosed &&
        (std::abs(p50 - measured_p50) > 1e-6 * p50 || std::abs(p99 - measured_p99) > 1e-6 * p99)) {
        it.errors.push_back("checked-reply latencies disagree with run_closed_loop's Measured");
    }
    it.virt["virt_tput_kops"] =
        static_cast<double>(window_commits) / sim::to_sec(w.measure) / 1000.0;
    it.virt["virt_p50_us"] = p50;
    it.virt["virt_p99_us"] = p99;
    it.virt["virt_outage_ms"] = outage_ns.value_or(0) / 1e6;
    it.virt["op_ok_frac"] = it.tally.ok_frac();
    it.virt["latency_samples"] = static_cast<double>(n);
    it.virt["highest_percentile"] = highest_supported_percentile(n) / 10.0;
    it.virt["backlog_end"] = static_cast<double>(it.backlog_end);
    it.virt["gen_late_us"] = it.gen_late_us;
    it.virt["net_transit_us"] = net_us;
    it.virt["net_cpu_us"] = cpu_us;
    it.virt["net_queue_us"] = queue_us;
    it.virt["window_commits"] = static_cast<double>(window_commits);
    it.lat_us = std::move(lat_us);

    // ---- program counters, read through public accessors.
    it.counts = read_counters(*d, reg, app_counts);
    const bench::Deployment::TxnTotals tx = d->txn_totals();
    if (w.app == AppKind::kTxn &&
        (tx.committed_txns != it.tally.committed || tx.aborted_txns != it.tally.aborted)) {
        it.errors.push_back("txn reply statuses disagree with the coordinators' outcomes");
    }
    if (w.fault_at > 0 && d->failovers() != 1) {
        it.errors.push_back("expected exactly one sequencer failover, saw " +
                            std::to_string(d->failovers()));
    }

    // ---- teardown: the deployment destructor.
    {
        SpanScope s(spans, "harness.~Deployment");
        const std::int64_t t0 = host_ns();
        d.reset();
        it.teardown_s = secs(t0, host_ns());
    }
    return it;
}

PooledVirt pool_virt(const WorkloadSpec& w, const std::vector<const Iteration*>& its) {
    PooledVirt pv;
    std::vector<double> lat;
    std::uint64_t commits = 0;
    double outage_ns = 0;
    for (const Iteration* it : its) {
        lat.insert(lat.end(), it->lat_us.begin(), it->lat_us.end());
        commits += it->window_commits;
        outage_ns += it->outage_ns;
        pv.tally += it->tally;
    }
    std::sort(lat.begin(), lat.end());
    const auto k = static_cast<double>(its.size());
    pv.samples = lat.size();
    pv.p50_us = percentile_sorted(lat, 50);
    pv.p99_us = percentile_sorted(lat, 99);
    pv.tput_kops = static_cast<double>(commits) / (k * sim::to_sec(w.measure)) / 1000.0;
    pv.outage_ms = outage_ns / k / 1e6;
    return pv;
}

ReplayResult replay_txns(const OpCapture& ops, std::uint64_t seed) {
    neo::app::KvStateMachine sm;
    neo::app::YcsbWorkload(kDataset, seed).load_into(sm);
    ReplayResult r;
    const std::int64_t t0 = host_ns();
    for (const auto& client_ops : ops) {
        for (const Bytes& op : client_ops) {
            Bytes reply = sm.execute(op);
            ++r.ops;
            if (!neo::app::KvResult::parse(reply)) ++r.bad_replies;
        }
    }
    r.ns = host_ns() - t0;
    return r;
}

CryptoUnitCost time_node_crypto(neo::crypto::CryptoMode mode, std::uint64_t seed, int verifiers) {
    const std::size_t n = mode == neo::crypto::CryptoMode::kReal ? 48 : 4096;
    // Distinct messages, so no call is answered by a memo it should not be.
    std::vector<Bytes> msgs;
    neo::StreamRng rng(seed, 0xc0);
    for (std::size_t i = 0; i < n; ++i) msgs.push_back(rng.bytes(kEchoBytes));

    // Median over three repeats, each on a fresh TrustRoot so verdict
    // memos start empty. Verification follows the deployment's pattern:
    // every signature is checked once by each of `verifiers` nodes sharing
    // the root, so all but the first are answered by the shared memo.
    std::vector<double> sign, verify, mac, hash;
    CryptoUnitCost u;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
        neo::crypto::TrustRoot root(mode, seed + rep);
        auto signer = root.provision(1);
        std::vector<std::unique_ptr<neo::crypto::NodeCrypto>> vs;
        for (int v = 0; v < verifiers; ++v) vs.push_back(root.provision(2 + static_cast<NodeId>(v)));
        std::vector<Bytes> sigs(n);

        std::int64_t t0 = host_ns();
        for (std::size_t i = 0; i < n; ++i) sigs[i] = signer->sign(msgs[i]);
        sign.push_back(static_cast<double>(host_ns() - t0) / static_cast<double>(n));

        t0 = host_ns();
        for (std::size_t i = 0; i < n; ++i) {
            for (auto& v : vs) u.verified_all &= v->verify(1, msgs[i], sigs[i]);
        }
        verify.push_back(static_cast<double>(host_ns() - t0) /
                         static_cast<double>(n * vs.size()));

        t0 = host_ns();
        for (std::size_t i = 0; i < n; ++i) signer->mac_for(2, msgs[i]);
        mac.push_back(static_cast<double>(host_ns() - t0) / static_cast<double>(n));

        t0 = host_ns();
        for (std::size_t i = 0; i < n; ++i) signer->hash(msgs[i]);
        hash.push_back(static_cast<double>(host_ns() - t0) / static_cast<double>(n));
    }
    u.sign_ns = median(sign);
    u.verify_ns = median(verify);
    u.mac_ns = median(mac);
    u.hash_ns = median(hash);
    return u;
}

}  // namespace perfbench
