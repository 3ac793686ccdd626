// Host-side memo of ECDSA verification outcomes.
//
// Signature verification is a pure function of (public key, message digest,
// signature); BFT protocols re-verify the same tuple often (client retries,
// cached replies, quorum certificates carried in several messages). The
// memo skips the EC math on repeats — a HOST-time optimisation only. The
// caller still charges the full virtual-time cost through CostMeter, so
// simulated results are byte-identical with the memo on or off.
//
// The table is keyed by (signer, digest, signature). Within one TrustRoot
// the signer -> public-key binding is immutable (keys are derived once from
// the master secret), so this is equivalent to keying by (pubkey, digest,
// signature). Hits require an exact match of all three fields — a collision
// can only evict, never alias — and both valid and invalid verdicts are
// cached (an attacker replaying a bad signature should not force repeated
// EC math either). Fixed-size open-addressing table, overwrite on
// collision: bounded memory, no rehashing on the hot path. The slots are
// allocated on the first insert: every node owns a memo, but only nodes
// that run real-crypto verification ever write one, so clients and
// modelled-crypto deployments never pay for (or zero) the table.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace neo::crypto {

class VerifyMemo {
  public:
    /// Signature width this memo caches (matches kSignatureSize).
    static constexpr std::size_t kSigBytes = 64;

    /// `slots` is rounded up to a power of two; default ~4096 entries.
    /// Allocates nothing until the first insert.
    explicit VerifyMemo(std::size_t slots = 4096);

    /// Memoised verdict for the tuple, or nullptr on miss. Counts a hit or
    /// a miss (a memo that was never written always misses); the caller
    /// performs (and inserts) the real verification on miss.
    const bool* find(NodeId signer, const Digest32& digest, BytesView sig);

    void insert(NodeId signer, const Digest32& digest, BytesView sig, bool valid);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t capacity() const { return capacity_; }
    /// Slots actually allocated: 0 until the first insert, then capacity().
    std::size_t allocated_slots() const { return slots_.size(); }

  private:
    struct Slot {
        bool occupied = false;
        bool valid = false;
        NodeId signer = 0;
        Digest32 digest{};
        std::array<std::uint8_t, kSigBytes> sig{};
    };

    std::size_t index_of(NodeId signer, const Digest32& digest, BytesView sig) const;

    std::size_t capacity_;
    std::vector<Slot> slots_;  // empty until the first insert
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace neo::crypto
