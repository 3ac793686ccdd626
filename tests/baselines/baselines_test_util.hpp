// Shared helpers for baseline protocol tests.
#pragma once

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/common.hpp"
#include "baselines/hotstuff.hpp"
#include "baselines/minbft.hpp"
#include "baselines/pbft.hpp"
#include "baselines/zyzzyva.hpp"

namespace neo::baselines::testutil {

constexpr NodeId kReplicaBase = 1;
constexpr NodeId kClientBase = 400;

/// Clients of the protocols that accept a result on f+1 matching replies.
struct QuorumClients {
    using Client = QuorumClient;
    static std::unique_ptr<Client> make_client(const BaseConfig& cfg,
                                               std::unique_ptr<crypto::NodeCrypto> c) {
        return std::make_unique<Client>(cfg, std::move(c), static_cast<std::size_t>(cfg.f + 1));
    }
};

// One struct per protocol: its replica and config types, the group size and
// fault rule, and the seeds its test file has always run with.

struct PbftProtocol : QuorumClients {
    using Replica = PbftReplica;
    using Config = BaseConfig;
    static constexpr const char* kName = "Pbft";
    static constexpr int kReplicas = 4;
    static constexpr std::uint64_t kNetSeed = 77;
    static constexpr std::uint64_t kRootSeed = 5;
    static int f(int n) { return (n - 1) / 3; }
    static std::unique_ptr<Replica> make_replica(const Config& cfg,
                                                 std::unique_ptr<crypto::NodeCrypto> c) {
        return std::make_unique<Replica>(cfg, std::move(c));
    }
};

struct HotStuffProtocol : QuorumClients {
    using Replica = HotStuffReplica;
    using Config = BaseConfig;
    static constexpr const char* kName = "HotStuff";
    static constexpr int kReplicas = 4;
    static constexpr std::uint64_t kNetSeed = 81;
    static constexpr std::uint64_t kRootSeed = 8;
    static int f(int n) { return (n - 1) / 3; }
    static std::unique_ptr<Replica> make_replica(const Config& cfg,
                                                 std::unique_ptr<crypto::NodeCrypto> c) {
        return std::make_unique<Replica>(cfg, std::move(c));
    }
};

struct MinbftProtocol : QuorumClients {
    using Replica = MinbftReplica;
    using Config = MinbftConfig;
    static constexpr const char* kName = "Minbft";
    static constexpr int kReplicas = 3;
    static constexpr std::uint64_t kNetSeed = 83;
    static constexpr std::uint64_t kRootSeed = 9;
    static constexpr std::uint64_t kUsigSeed = 55;
    static int f(int n) { return (n - 1) / 2; }  // MinBFT: n = 2f+1
    static std::unique_ptr<Replica> make_replica(const Config& cfg,
                                                 std::unique_ptr<crypto::NodeCrypto> c) {
        return std::make_unique<Replica>(cfg, std::move(c), kUsigSeed);
    }
};

struct ZyzzyvaProtocol {
    using Replica = ZyzzyvaReplica;
    using Config = BaseConfig;
    using Client = ZyzzyvaClient;
    static constexpr const char* kName = "Zyzzyva";
    static constexpr int kReplicas = 4;
    static constexpr std::uint64_t kNetSeed = 79;
    static constexpr std::uint64_t kRootSeed = 6;
    static int f(int n) { return (n - 1) / 3; }
    static std::unique_ptr<Replica> make_replica(const Config& cfg,
                                                 std::unique_ptr<crypto::NodeCrypto> c) {
        return std::make_unique<Replica>(cfg, std::move(c));
    }
    static std::unique_ptr<Client> make_client(const BaseConfig& cfg,
                                               std::unique_ptr<crypto::NodeCrypto> c,
                                               Client::Options opts = {}) {
        return std::make_unique<Client>(cfg, std::move(c), opts);
    }
};

/// One replica group of protocol `P` on a datacenter network, with real
/// crypto; clients are added on demand.
template <typename P>
struct Deployment {
    using Replica = typename P::Replica;
    using Client = typename P::Client;
    using Config = typename P::Config;

    explicit Deployment(int n = P::kReplicas, Config base = {})
        : net(sim, P::kNetSeed), root(crypto::CryptoMode::kReal, P::kRootSeed) {
        net.set_default_link(sim::datacenter_link());
        cfg = base;
        cfg.f = P::f(n);
        for (int i = 0; i < n; ++i) cfg.replicas.push_back(kReplicaBase + static_cast<NodeId>(i));
        for (NodeId rid : cfg.replicas) {
            auto rep = P::make_replica(cfg, root.provision(rid));
            net.add_node(*rep, rid);
            replicas.push_back(std::move(rep));
        }
    }

    template <typename... Opts>
    Client& add_client(Opts... opts) {
        NodeId cid = kClientBase + static_cast<NodeId>(clients.size());
        auto c = P::make_client(cfg, root.provision(cid), opts...);
        net.add_node(*c, cid);
        clients.push_back(std::move(c));
        return *clients.back();
    }

    sim::Simulator sim;
    sim::Network net;
    crypto::TrustRoot root;
    Config cfg;
    std::vector<std::unique_ptr<Replica>> replicas;
    std::vector<std::unique_ptr<Client>> clients;
};

/// Drives `client` through `total` sequential ops, storing echo results.
template <typename ClientT>
void drive(ClientT& client, int c, int i, int total, std::vector<std::string>& out) {
    if (i >= total) return;
    std::string op = "op-" + std::to_string(c) + "-" + std::to_string(i);
    client.invoke(to_bytes(op), [&client, c, i, total, &out](Bytes result) {
        out.push_back(to_string(result));
        drive(client, c, i + 1, total, out);
    });
}

}  // namespace neo::baselines::testutil
