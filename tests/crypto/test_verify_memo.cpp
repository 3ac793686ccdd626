// The verified-signature memo: skips repeat EC math on the host while the
// virtual-time cost model stays oblivious — a memo hit and a memo miss
// charge the node's CostMeter identically, so simulated results cannot
// depend on cache state.
#include <gtest/gtest.h>

#include "crypto/identity.hpp"
#include "crypto/verify_memo.hpp"

using namespace neo;
using namespace neo::crypto;

namespace {

Bytes msg_bytes(const char* s) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(s);
    return Bytes(p, p + std::char_traits<char>::length(s));
}

TEST(VerifyMemo, RepeatVerificationHitsAndAgrees) {
    TrustRoot root(CryptoMode::kReal, /*seed=*/11);
    auto signer = root.provision(1);
    auto checker = root.provision(2);

    Bytes msg = msg_bytes("memoised message");
    Bytes sig = signer->sign(msg);

    EXPECT_TRUE(checker->verify(1, msg, sig));
    std::uint64_t hits_after_first = checker->verify_memo().hits();
    EXPECT_TRUE(checker->verify(1, msg, sig));
    EXPECT_TRUE(checker->verify(1, msg, sig));
    EXPECT_EQ(checker->verify_memo().hits(), hits_after_first + 2);
}

TEST(VerifyMemo, HitChargesFullVirtualCost) {
    TrustRoot root(CryptoMode::kReal, /*seed=*/12);
    auto signer = root.provision(1);
    auto checker = root.provision(2);
    CostMeter& meter = checker->meter();

    Bytes msg = msg_bytes("cost model is host-blind");
    Bytes sig = signer->sign(msg);

    ASSERT_TRUE(checker->verify(1, msg, sig));  // miss: real EC math
    std::int64_t miss_sync = meter.drain();
    std::int64_t miss_async = meter.drain_async();

    ASSERT_TRUE(checker->verify(1, msg, sig));  // hit: memo only
    std::int64_t hit_sync = meter.drain();
    std::int64_t hit_async = meter.drain_async();

    EXPECT_GT(checker->verify_memo().hits(), 0u);
    EXPECT_EQ(hit_sync, miss_sync);
    EXPECT_EQ(hit_async, miss_async);
    EXPECT_EQ(hit_sync, root.costs().ecdsa_dispatch_ns);
    EXPECT_EQ(hit_async, root.costs().ecdsa_verify_ns);
    EXPECT_EQ(meter.verifies, 2u);  // op counters tick on hits too
}

TEST(VerifyMemo, InvalidSignaturesAreMemoisedAsInvalid) {
    TrustRoot root(CryptoMode::kReal, /*seed=*/13);
    auto signer = root.provision(1);
    auto checker = root.provision(2);

    Bytes msg = msg_bytes("tampered");
    Bytes sig = signer->sign(msg);
    sig[10] ^= 0x01;

    EXPECT_FALSE(checker->verify(1, msg, sig));
    std::uint64_t hits_after_first = checker->verify_memo().hits();
    EXPECT_FALSE(checker->verify(1, msg, sig));  // hit, still invalid
    EXPECT_EQ(checker->verify_memo().hits(), hits_after_first + 1);
}

TEST(VerifyMemo, KeyCoversSignerDigestAndSignature) {
    TrustRoot root(CryptoMode::kReal, /*seed=*/14);
    auto node1 = root.provision(1);
    auto node2 = root.provision(2);
    auto checker = root.provision(3);

    Bytes msg = msg_bytes("same message");
    Bytes sig1 = node1->sign(msg);

    ASSERT_TRUE(checker->verify(1, msg, sig1));
    // Same (digest, sig) attributed to a different signer must NOT hit the
    // node-1 entry: it re-verifies against node 2's key and fails.
    EXPECT_FALSE(checker->verify(2, msg, sig1));
    // A different message under the same signer is its own entry.
    Bytes other = msg_bytes("different message");
    EXPECT_FALSE(checker->verify(1, other, sig1));
}

TEST(VerifyMemo, CollisionEvictionStaysCorrect) {
    // A tiny table forces constant evictions; every verdict must still be
    // correct (full-key compare on hit, re-verify on miss).
    VerifyMemo memo(/*slots=*/2);
    Digest32 d{};
    Bytes sig(VerifyMemo::kSigBytes, 0);
    for (std::uint32_t signer = 0; signer < 64; ++signer) {
        d[0] = static_cast<std::uint8_t>(signer);
        EXPECT_EQ(memo.find(signer, d, sig), nullptr);
        memo.insert(signer, d, sig, signer % 2 == 0);
    }
    // Whatever survived must report the verdict it was stored with.
    for (std::uint32_t signer = 0; signer < 64; ++signer) {
        d[0] = static_cast<std::uint8_t>(signer);
        const bool* v = memo.find(signer, d, sig);
        if (v != nullptr) {
            EXPECT_EQ(*v, signer % 2 == 0);
        }
    }
}

TEST(VerifyMemo, ModeledModeBypassesTheMemo) {
    TrustRoot root(CryptoMode::kModeled, /*seed=*/15);
    auto signer = root.provision(1);
    auto checker = root.provision(2);
    Bytes msg = msg_bytes("modeled tags are cheap already");
    Bytes sig = signer->sign(msg);
    EXPECT_TRUE(checker->verify(1, msg, sig));
    EXPECT_TRUE(checker->verify(1, msg, sig));
    EXPECT_EQ(checker->verify_memo().hits() + checker->verify_memo().misses(), 0u);
}

TEST(VerifyMemo, ModeledDeploymentAllocatesNoSlots) {
    // Every node owns a memo, but modelled-crypto nodes never write one:
    // no node memo, shared shard or root memo may hold slot storage.
    TrustRoot root(CryptoMode::kModeled, /*seed=*/16);
    std::vector<std::unique_ptr<NodeCrypto>> nodes;
    for (NodeId id = 1; id <= 5; ++id) nodes.push_back(root.provision(id));
    Bytes msg = msg_bytes("modeled deployment traffic");
    for (auto& signer : nodes) {
        Bytes sig = signer->sign(msg);
        for (auto& checker : nodes) EXPECT_TRUE(checker->verify(signer->self(), msg, sig));
        EXPECT_TRUE(root.verify_unmetered(signer->self(), msg, sig));
    }
    for (auto& node : nodes) {
        EXPECT_EQ(node->verify_memo().allocated_slots(), 0u);
        EXPECT_EQ(node->verify_memo().capacity(), 4096u);
    }
    EXPECT_EQ(root.memo_allocated_slots(), 0u);
}

TEST(VerifyMemo, FirstInsertAllocatesAndEmptyFindMisses) {
    VerifyMemo memo;
    Digest32 d{};
    Bytes sig(VerifyMemo::kSigBytes, 7);
    EXPECT_EQ(memo.find(1, d, sig), nullptr);  // empty memo: a counted miss
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.allocated_slots(), 0u);
    memo.insert(1, d, sig, true);
    EXPECT_EQ(memo.allocated_slots(), memo.capacity());
    const bool* v = memo.find(1, d, sig);
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(*v);
    EXPECT_EQ(memo.hits(), 1u);
}

TEST(VerifyMemo, RealModeVerdictsAndChargesAcrossFirstAllocation) {
    // The first verification meets an unallocated memo: it must count one
    // miss, return the true verdict and charge exactly what a later hit does.
    TrustRoot root(CryptoMode::kReal, /*seed=*/17);
    auto signer = root.provision(1);
    auto checker = root.provision(2);
    EXPECT_EQ(checker->verify_memo().allocated_slots(), 0u);
    Bytes msg = msg_bytes("first verification allocates");
    Bytes sig = signer->sign(msg);
    Bytes bad = sig;
    bad[5] ^= 0x10;

    CostMeter& meter = checker->meter();
    EXPECT_TRUE(checker->verify(1, msg, sig));
    EXPECT_EQ(checker->verify_memo().misses(), 1u);
    EXPECT_EQ(checker->verify_memo().allocated_slots(), checker->verify_memo().capacity());
    std::int64_t miss_sync = meter.drain();
    std::int64_t miss_async = meter.drain_async();
    EXPECT_FALSE(checker->verify(1, msg, bad));
    EXPECT_TRUE(checker->verify(1, msg, sig));
    EXPECT_FALSE(checker->verify(1, msg, bad));
    EXPECT_EQ(checker->verify_memo().hits(), 2u);
    EXPECT_EQ(meter.drain(), 3 * miss_sync);
    EXPECT_EQ(meter.drain_async(), 3 * miss_async);
}

}  // namespace
