// Node identities, key provisioning, and per-node signing/verification.
//
// TrustRoot plays the role the paper assigns to the configuration service's
// credential setup (§4.1, §5.1): it provisions each node's signing keypair
// and the pairwise symmetric keys used for MAC authenticators, and
// distributes public keys. Protocol code never touches another node's
// private key — a Byzantine node subclass only holds its own NodeCrypto, so
// forging requires breaking the underlying primitive.
//
// Two modes:
//  - kReal:    secp256k1 ECDSA signatures, SipHash pairwise MACs. Used by
//              tests and examples; tampering is cryptographically detected.
//  - kModeled: SipHash-based tags standing in for signatures, with the SAME
//              virtual-time cost charged as ECDSA. Used by large bench
//              sweeps so millions of simulated messages stay cheap in real
//              time. Not adversarially sound (a shared oracle key exists
//              inside the process) — documented in DESIGN.md.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/cost.hpp"
#include "crypto/hmac_sha256.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/siphash.hpp"
#include "crypto/tuning.hpp"
#include "crypto/verify_memo.hpp"

namespace neo::crypto {

enum class CryptoMode { kReal, kModeled };

/// Byte size of a signature in both modes (modeled tags are padded so wire
/// sizes — and therefore bandwidth costs — match).
constexpr std::size_t kSignatureSize = 64;
/// Byte size of a pairwise MAC tag.
constexpr std::size_t kMacSize = 8;

class NodeCrypto;

/// System-wide key directory. Create once per simulation, share between all
/// nodes. Const after setup: every mutating call (provision, key
/// registration) happens before the simulation runs, so concurrent reads
/// from parallel simulator workers are safe. Host-side caching of verify
/// verdicts and pairwise keys lives in each NodeCrypto — node-private state
/// that stays on the node's partition — except verify_unmetered's memo,
/// which serves single-threaded external checkers only.
class TrustRoot {
  public:
    TrustRoot(CryptoMode mode, std::uint64_t seed, CryptoCosts costs = {});

    CryptoMode mode() const { return mode_; }
    const CryptoCosts& costs() const { return costs_; }

    /// Creates (or returns) the crypto context for a node. Each node keeps
    /// its own; the TrustRoot retains only public material.
    std::unique_ptr<NodeCrypto> provision(NodeId node);

    /// Public key lookup (real mode). Asserts the node was provisioned.
    const EcdsaPublicKey& public_key(NodeId node) const;

    /// Derives the symmetric key shared by a pair of nodes.
    SipKey pair_key(NodeId a, NodeId b) const;

    /// Verifies a signature without a NodeCrypto context (e.g. external
    /// checkers in tests). Does not charge any cost meter. Single-threaded
    /// callers only (its memo is shared process state); simulated nodes
    /// verify through their own NodeCrypto.
    bool verify_unmetered(NodeId signer, BytesView msg, BytesView sig) const;

    /// Host-time memo of (signer, digest, sig) verdicts used by
    /// verify_unmetered. Exposed for instrumentation.
    const VerifyMemo& verify_memo() const { return memo_; }

    /// Cached wNAF table for a provisioned signer's public key (kReal
    /// only; built once at provision time, immutable afterwards — safe to
    /// read from any partition without locks). Null when unknown.
    const QTable* signer_table(NodeId node) const;

    /// Total hits on the cross-node shared verdict memo (host-side
    /// instrumentation; see NodeCrypto::verify).
    std::uint64_t shared_memo_hits() const;

    /// Verdict-memo slots this root has allocated (verify_unmetered's memo
    /// plus the shared shards). Memos allocate on their first insert, so
    /// this stays 0 unless real-crypto verification ran.
    std::size_t memo_allocated_slots() const;

  private:
    friend class NodeCrypto;

    Bytes derive(std::string_view label, std::uint64_t a, std::uint64_t b) const;
    Bytes modeled_sign(NodeId signer, BytesView msg) const;

    /// Cross-node shared verdict memo. Verification is a pure function of
    /// (public key, digest, signature), and in a simulated deployment every
    /// replica verifies the SAME broadcast bytes — node-private memos pay
    /// the EC math once per node, this shard pays it once per process.
    /// Mutex-sharded because parallel partitions hit it concurrently; a
    /// miss costs one short critical section. Host-time only: each node
    /// still charges full virtual cost, so simulated results are identical
    /// with the shared memo on or off (HostCryptoTuning::shared_memo).
    /// Returns true and fills *valid on a hit. The verdict is copied out
    /// under the shard lock — never a pointer into the shard, which a
    /// concurrent insert could recycle.
    bool shared_find(NodeId signer, const Digest32& digest, BytesView sig, bool* valid) const;
    void shared_insert(NodeId signer, const Digest32& digest, BytesView sig, bool valid) const;

    CryptoMode mode_;
    CryptoCosts costs_;
    Bytes master_secret_;
    // Padded-key SHA-256 midstates for master_secret_: every derive() and
    // modeled_sign() HMACs under this one key, so the key-block absorb is
    // paid once per TrustRoot instead of per message.
    HmacSha256Key master_key_;
    std::unordered_map<NodeId, EcdsaPublicKey> public_keys_;
    std::unordered_map<NodeId, std::unique_ptr<QTable>> signer_tables_;
    std::unordered_map<NodeId, bool> provisioned_;
    // mutable: verify_unmetered is logically const (pure function of the
    // key material); the memo is a host-side cache of its results. Only
    // external single-threaded checkers touch it — node verification goes
    // through NodeCrypto's private memo.
    mutable VerifyMemo memo_;
    struct MemoShard {
        mutable std::mutex m;
        mutable VerifyMemo memo{2048};
    };
    static constexpr std::size_t kMemoShards = 8;
    mutable std::array<MemoShard, kMemoShards> shared_memo_;
};

/// Per-node crypto context. All operations charge the node's CostMeter.
class NodeCrypto {
  public:
    NodeId self() const { return self_; }
    CostMeter& meter() { return meter_; }
    const TrustRoot& root() const { return *root_; }

    /// Signs with this node's key. Output is kSignatureSize bytes.
    Bytes sign(BytesView msg);

    /// Verifies `signer`'s signature over msg.
    bool verify(NodeId signer, BytesView msg, BytesView sig);

    /// Batch verification: one dispatch for the whole batch (how real
    /// deployments feed signature batches to worker cores), async cost per
    /// element. Returns per-element validity.
    struct BatchItem {
        NodeId signer;
        Bytes msg;
        BytesView sig;
    };
    std::vector<bool> verify_batch(const std::vector<BatchItem>& items);

    /// Pairwise MAC tag for messages to `peer` (kMacSize bytes).
    Bytes mac_for(NodeId peer, BytesView msg);
    bool check_mac_from(NodeId peer, BytesView msg, BytesView tag);

    /// SHA-256 with cost charging.
    Digest32 hash(BytesView msg);

    /// This node's host-time memo of (signer, digest, sig) verdicts used by
    /// the kReal verify path. Node-private — never shared across threads.
    /// Exposed for instrumentation; callers still charge virtual cost.
    const VerifyMemo& verify_memo() const { return memo_; }

    /// Host-side counters of this node's batch-verification activity
    /// (fast-path batches, bisect descents, forged-leaf rechecks).
    const BatchVerifyStats& batch_stats() const { return batch_stats_; }

  private:
    friend class TrustRoot;
    NodeCrypto(const TrustRoot* root, NodeId self, EcdsaPrivateKey priv);

    bool verify_cached(NodeId signer, BytesView msg, BytesView sig);
    const SipKey& peer_key(NodeId peer);

    const TrustRoot* root_;
    NodeId self_;
    EcdsaPrivateKey priv_;
    CostMeter meter_;
    // Host-side caches, node-private so parallel partitions never contend:
    // verification verdicts and the pairwise MAC keys this node talks with.
    VerifyMemo memo_;
    BatchVerifyStats batch_stats_;
    std::unordered_map<NodeId, SipKey> peer_keys_;
};

}  // namespace neo::crypto
