#include "crypto/verify_memo.hpp"

#include <algorithm>

namespace neo::crypto {

namespace {

std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

}  // namespace

VerifyMemo::VerifyMemo(std::size_t slots)
    : capacity_(round_up_pow2(std::max<std::size_t>(slots, 2))) {}

std::size_t VerifyMemo::index_of(NodeId signer, const Digest32& digest, BytesView sig) const {
    // FNV-1a over the full tuple: cheap, and collisions only cost an
    // eviction (find() compares the full key before reporting a hit).
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint8_t b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(signer >> (8 * i)));
    for (std::uint8_t b : digest) mix(b);
    for (std::uint8_t b : sig) mix(b);
    return static_cast<std::size_t>(h) & (capacity_ - 1);
}

const bool* VerifyMemo::find(NodeId signer, const Digest32& digest, BytesView sig) {
    if (sig.size() != kSigBytes) return nullptr;
    if (slots_.empty()) {
        ++misses_;
        return nullptr;
    }
    const Slot& slot = slots_[index_of(signer, digest, sig)];
    if (slot.occupied && slot.signer == signer && slot.digest == digest &&
        std::equal(sig.begin(), sig.end(), slot.sig.begin())) {
        ++hits_;
        return &slot.valid;
    }
    ++misses_;
    return nullptr;
}

void VerifyMemo::insert(NodeId signer, const Digest32& digest, BytesView sig, bool valid) {
    if (sig.size() != kSigBytes) return;
    if (slots_.empty()) slots_.resize(capacity_);
    Slot& slot = slots_[index_of(signer, digest, sig)];
    slot.occupied = true;
    slot.valid = valid;
    slot.signer = signer;
    slot.digest = digest;
    std::copy(sig.begin(), sig.end(), slot.sig.begin());
}

}  // namespace neo::crypto
