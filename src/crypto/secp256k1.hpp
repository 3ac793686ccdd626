// secp256k1 elliptic-curve arithmetic and ECDSA, implemented from scratch.
//
// This is the signature algorithm the paper's FPGA coprocessor implements for
// the aom-pk variant (§4.4). The generator precompute table below mirrors the
// coprocessor's "pre-computed table in fast block RAM": multiples of the
// generator point are tabulated so a signing operation needs only table
// lookups and point additions, no doublings.
//
// Curve: y² = x³ + 7 over F_p,
//   p = 2²⁵⁶ − 2³² − 977
//   n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141
//
// Timing on the signing path (the nonce k and key d are secret). These run
// in time independent of secret values, with no secret-dependent branch,
// loop bound or table index: Fe add/sub/negate/mul/sqr, Scalar
// add/negate/mul/sqr, the 512-bit reductions mod p and mod n, and both
// inversions (Fe::inverse in to_affine, Scalar::inverse for k^-1). NOT
// constant-time, and not hardened: gen_mul_jac skips zero 8-bit digits of
// k and indexes the generator table by digit, and the Jacobian add/double
// branch on infinity and equal inputs. The verification side (public
// inputs only) is variable-time by design.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/bytes.hpp"

namespace neo::crypto {

/// 256-bit unsigned integer, four little-endian 64-bit limbs.
struct U256 {
    std::array<std::uint64_t, 4> v{0, 0, 0, 0};

    static U256 from_be_bytes(BytesView b32);
    Digest32 to_be_bytes() const;

    bool is_zero() const { return (v[0] | v[1] | v[2] | v[3]) == 0; }
    bool bit(int i) const { return (v[i / 64] >> (i % 64)) & 1; }

    friend bool operator==(const U256&, const U256&) = default;
};

/// -1, 0, +1 three-way compare.
int u256_cmp(const U256& a, const U256& b);

/// out = a + b; returns the carry out of bit 255 (1 = overflowed 2^256).
std::uint64_t u256_add(const U256& a, const U256& b, U256* out);

/// The field prime p (2^256 - 2^32 - 977).
const U256& field_prime_u256();
/// The group order n.
const U256& scalar_order_u256();

/// Field element mod p, always fully reduced.
///
/// add/sub/negate/mul/sqr are defined inline below: each is one fixed
/// instruction sequence (carry chains and a masked conditional subtract of
/// p, no branch or loop that depends on the value), and the point code in
/// secp256k1_point.cpp calls them thousands of times per scalar multiple.
class Fe {
  public:
    Fe() = default;
    static Fe zero() { return Fe(); }
    static Fe one();
    static Fe from_u64(std::uint64_t x);
    /// Reduces an arbitrary 256-bit value mod p.
    static Fe from_u256(const U256& x);
    /// Parses 32 big-endian bytes; rejects values >= p.
    static std::optional<Fe> from_be_bytes_checked(BytesView b32);

    const U256& raw() const { return n_; }
    Digest32 to_be_bytes() const { return n_.to_be_bytes(); }
    bool is_zero() const { return n_.is_zero(); }

    Fe add(const Fe& o) const;
    Fe sub(const Fe& o) const;
    Fe mul(const Fe& o) const;
    /// Dedicated squaring: 10 limb products instead of mul's 16, and point
    /// doublings are squaring-heavy.
    Fe sqr() const;
    Fe negate() const;
    /// Multiplicative inverse x^(p-2), by the window exponentiation shared
    /// with Scalar::inverse. Requires non-zero input. Constant-time in the
    /// value: the square/multiply sequence and every table index follow
    /// the public exponent alone, so it is safe on secret-derived data
    /// (to_affine on the signing path).
    Fe inverse() const;
    /// Variable-time inverse (binary extended GCD), several times faster
    /// than the exponentiation. VERIFICATION-SIDE ONLY: the running time
    /// depends on the value, so never call it on secret-derived data.
    Fe inverse_vartime() const;

    friend bool operator==(const Fe&, const Fe&) = default;

  private:
    U256 n_;
};

/// Batch inversion (Montgomery's trick): one inversion plus 3(count-1)
/// multiplications; every element must be non-zero. The single inversion is
/// variable-time — batch callers (table normalisation, verification) only
/// ever invert public values.
void fe_batch_inverse(Fe* elems, std::size_t count);

/// Scalar mod the group order n, always fully reduced.
class Scalar {
  public:
    Scalar() = default;
    static Scalar zero() { return Scalar(); }
    static Scalar one();
    static Scalar from_u64(std::uint64_t x);
    /// Reduces an arbitrary 256-bit value mod n (used for hashes -> z).
    static Scalar from_u256_reduce(const U256& x);
    static Scalar from_be_bytes_reduce(BytesView b32) {
        return from_u256_reduce(U256::from_be_bytes(b32));
    }
    /// Strict parse: rejects values >= n (signature components).
    static std::optional<Scalar> from_be_bytes_checked(BytesView b32);

    const U256& raw() const { return n_; }
    Digest32 to_be_bytes() const { return n_.to_be_bytes(); }
    bool is_zero() const { return n_.is_zero(); }

    /// add, negate, mul and sqr are branch-free. mul/sqr reduce the 512-bit
    /// product in three fixed folds of 2^256 ≡ 2^256 - n plus one masked
    /// conditional subtract, so their timing never depends on the value.
    Scalar add(const Scalar& o) const;
    Scalar mul(const Scalar& o) const;
    /// Dedicated squaring (see Fe::sqr).
    Scalar sqr() const;
    Scalar negate() const;
    /// x^(n-2) by the shared window exponentiation (see Fe::inverse). The
    /// signing path inverts the secret nonce with it; constant-time in the
    /// value.
    Scalar inverse() const;
    /// Variable-time inverse (binary extended GCD). VERIFICATION-SIDE ONLY:
    /// s and r are public once a signature is on the wire.
    Scalar inverse_vartime() const;

    friend bool operator==(const Scalar&, const Scalar&) = default;

  private:
    U256 n_;
};

/// Batch scalar inversion (Montgomery's trick, variable-time single
/// inversion): the shared-precomputation step of batch ECDSA verification —
/// all s_i inverted for the cost of one inversion. Every element must be
/// non-zero; verification-side only (signature components are public).
void scalar_batch_inverse(Scalar* elems, std::size_t count);

/// Affine curve point; `infinity` is the group identity.
struct AffinePoint {
    Fe x;
    Fe y;
    bool infinity = true;

    static AffinePoint generator();
    bool on_curve() const;

    /// 64-byte uncompressed x||y (big-endian). Identity is not serialisable.
    Bytes serialize() const;
    /// Parses and validates (on-curve, coordinates < p).
    static std::optional<AffinePoint> parse(BytesView b64);

    friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

/// k*G via the generator precompute table (the FPGA fast path).
AffinePoint generator_mul(const Scalar& k);
/// k*P via double-and-add.
AffinePoint point_mul(const AffinePoint& p, const Scalar& k);
/// P + Q.
AffinePoint point_add(const AffinePoint& p, const AffinePoint& q);
/// u1*G + u2*Q — the ECDSA verification combination, shares one
/// Jacobian accumulation.
AffinePoint double_mul(const Scalar& u1, const AffinePoint& q, const Scalar& u2);

/// The GLV endomorphism of secp256k1 (verification side). β is a cube
/// root of unity mod p and λ one mod n, paired so that λ·(x, y) = (β·x, y)
/// for every curve point: a multiple by λ costs one field multiply.
/// tests/crypto/test_secp256k1.cpp checks both roots and the pairing.
Fe glv_beta();
Scalar glv_lambda();

/// Splits k into (k1, k2) with k1 + k2·λ ≡ k (mod n) and |k1|, |k2| < 2^129
/// (Babai rounding against a reduced basis of the lattice
/// {(a, b) : a + b·λ ≡ 0 (mod n)}). Each half comes back mod n, so a
/// negative half -m appears as n - m: its top limb is then non-zero, which
/// a half below 2^129 never has. Variable-time; public scalars only.
std::pair<Scalar, Scalar> glv_split(const Scalar& k);

/// Precomputed width-5 wNAF odd multiples {1,3,...,15}·Q of one public
/// point and their images under the endomorphism, {1,3,...,15}·λQ, all
/// batch-normalised to affine. u2·Q is computed as k1·Q + k2·(λQ) from
/// glv_split(u2): two ~129-bit wNAF walks sharing ~129 doublings, instead
/// of one 256-bit walk with 256. Building a table costs a point doubling,
/// seven additions, a batch inversion and eight field multiplies.
/// TrustRoot keeps one per provisioned signer (public keys are immutable
/// after setup), and batch verification shares one per signer per batch.
/// Immutable after construction — safe to read concurrently.
class QTable {
  public:
    explicit QTable(const AffinePoint& q);

    const AffinePoint& base() const { return base_; }

    /// u1·G + u2·base() in affine coordinates (one field inversion).
    AffinePoint double_mul(const Scalar& u1, const Scalar& u2) const;

    /// ECDSA residual check without ANY field inversion: computes
    /// P = u1·G + u2·base() in Jacobian coordinates and tests
    /// x(P) ≡ r (mod n) projectively — X == r̃·Z² for r̃ ∈ {r, r+n if < p}.
    /// Equivalent to (!P.infinity && x(P) mod n == r), i.e. exactly the
    /// ecdsa_verify acceptance predicate.
    bool double_mul_check_r(const Scalar& u1, const Scalar& u2, const Scalar& r) const;

  private:
    AffinePoint base_;
    // odd_[i] = (2i+1)·Q and odd_lambda_[i] = (2i+1)·λQ = (β·x, y) of odd_[i].
    std::array<AffinePoint, 8> odd_;
    std::array<AffinePoint, 8> odd_lambda_;
};

struct EcdsaSignature {
    Scalar r;
    Scalar s;

    /// 64-byte r||s (big-endian).
    Bytes serialize() const;
    /// Strict parse: r, s in [1, n-1].
    static std::optional<EcdsaSignature> parse(BytesView b64);

    friend bool operator==(const EcdsaSignature&, const EcdsaSignature&) = default;
};

struct EcdsaPrivateKey {
    Scalar d;
    /// Derives a valid private key from 32 seed bytes (reduced mod n, never zero).
    static EcdsaPrivateKey from_seed(BytesView seed32);
};

struct EcdsaPublicKey {
    AffinePoint q;
    Bytes serialize() const { return q.serialize(); }
    static std::optional<EcdsaPublicKey> parse(BytesView b64);
};

EcdsaPublicKey ecdsa_derive_public(const EcdsaPrivateKey& priv);

/// Deterministic ECDSA signing (RFC-6979-style HMAC-SHA256 nonce derivation).
EcdsaSignature ecdsa_sign(const EcdsaPrivateKey& priv, const Digest32& msg_hash);

bool ecdsa_verify(const EcdsaPublicKey& pub, const Digest32& msg_hash, const EcdsaSignature& sig);

/// Verification against a prebuilt table for the signer's public key —
/// the amortised hot path (identical verdict to ecdsa_verify).
bool ecdsa_verify_with(const QTable& table, const Digest32& msg_hash, const EcdsaSignature& sig);

// ------------------------------------------------ inline field arithmetic
//
// Four little-endian 64-bit limbs, always fully reduced. Every routine is a
// fixed sequence: carries are computed arithmetically and a reduction that
// may or may not be needed is applied through an all-ones/all-zeros mask.

namespace secp256k1_detail {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// 2^256 - p, as four limbs: 2^256 ≡ 2^32 + 977 (mod p).
inline constexpr u64 kFieldK[4] = {0x1000003D1ull, 0, 0, 0};

/// Product-scanning column accumulator: a 192-bit running sum.
struct Acc192 {
    u128 lo = 0;
    u64 hi = 0;

    void add(u128 x) {
        lo += x;
        hi += lo < x;
    }
    void mul_add(u64 a, u64 b) { add(static_cast<u128>(a) * b); }
    /// Adds 2ab (a symmetric cross product of a squaring).
    void mul_add2(u64 a, u64 b) {
        u128 x = static_cast<u128>(a) * b;
        add(x);
        add(x);
    }
    /// Emits the low limb and shifts the sum down by 64 bits.
    u64 shift() {
        u64 out = static_cast<u64>(lo);
        lo = (lo >> 64) | (static_cast<u128>(hi) << 64);
        hi = 0;
        return out;
    }
};

/// t = a * b, 4 x 4 -> 8 limbs.
inline void mul_512(const u64 a[4], const u64 b[4], u64 t[8]) {
    Acc192 c;
    c.mul_add(a[0], b[0]);
    t[0] = c.shift();
    c.mul_add(a[0], b[1]);
    c.mul_add(a[1], b[0]);
    t[1] = c.shift();
    c.mul_add(a[0], b[2]);
    c.mul_add(a[1], b[1]);
    c.mul_add(a[2], b[0]);
    t[2] = c.shift();
    c.mul_add(a[0], b[3]);
    c.mul_add(a[1], b[2]);
    c.mul_add(a[2], b[1]);
    c.mul_add(a[3], b[0]);
    t[3] = c.shift();
    c.mul_add(a[1], b[3]);
    c.mul_add(a[2], b[2]);
    c.mul_add(a[3], b[1]);
    t[4] = c.shift();
    c.mul_add(a[2], b[3]);
    c.mul_add(a[3], b[2]);
    t[5] = c.shift();
    c.mul_add(a[3], b[3]);
    t[6] = c.shift();
    t[7] = static_cast<u64>(c.lo);
}

/// t = a^2: the six cross products are computed once and added twice.
inline void sqr_512(const u64 a[4], u64 t[8]) {
    Acc192 c;
    c.mul_add(a[0], a[0]);
    t[0] = c.shift();
    c.mul_add2(a[0], a[1]);
    t[1] = c.shift();
    c.mul_add2(a[0], a[2]);
    c.mul_add(a[1], a[1]);
    t[2] = c.shift();
    c.mul_add2(a[0], a[3]);
    c.mul_add2(a[1], a[2]);
    t[3] = c.shift();
    c.mul_add2(a[1], a[3]);
    c.mul_add(a[2], a[2]);
    t[4] = c.shift();
    c.mul_add2(a[2], a[3]);
    t[5] = c.shift();
    c.mul_add(a[3], a[3]);
    t[6] = c.shift();
    t[7] = static_cast<u64>(c.lo);
}

/// For m = 2^256 - k and a value v = carry·2^256 + r below 2m: r = v mod m.
/// v >= m exactly when v + k reaches 2^256, and then v - m is (r + k) mod
/// 2^256. So one carry chain finds the carry of r + k, and a second adds
/// k masked by it: no compare-and-subtract, no branch, no select.
inline void cond_sub_mod(u64 r[4], u64 carry, const u64 k[4]) {
    u128 acc = 0;
    for (int i = 0; i < 4; ++i) {
        acc += static_cast<u128>(r[i]) + k[i];
        acc >>= 64;
    }
    const u64 mask = 0 - (static_cast<u64>(acc) | carry);
    acc = 0;
    for (int i = 0; i < 4; ++i) {
        acc += static_cast<u128>(r[i]) + (k[i] & mask);
        r[i] = static_cast<u64>(acc);
        acc >>= 64;
    }
}

/// r = (a + b) mod m for a, b < m = 2^256 - k.
inline void add_mod(const u64 a[4], const u64 b[4], u64 r[4], const u64 k[4]) {
    u128 acc = 0;
    for (int i = 0; i < 4; ++i) {
        acc += static_cast<u128>(a[i]) + b[i];
        r[i] = static_cast<u64>(acc);
        acc >>= 64;
    }
    cond_sub_mod(r, static_cast<u64>(acc), k);
}

/// r = t mod p for a 512-bit t. 2^256 ≡ K (33 bits) folds the high half
/// into 290 bits, a second fold leaves carry·2^256 + r < 2p, and one
/// conditional subtract finishes.
inline void fe_reduce_512(const u64 t[8], u64 r[4]) {
    constexpr u64 K = kFieldK[0];
    u128 acc = 0;
    for (int i = 0; i < 4; ++i) {
        acc += static_cast<u128>(t[4 + i]) * K + t[i];
        r[i] = static_cast<u64>(acc);
        acc >>= 64;
    }
    acc = static_cast<u128>(static_cast<u64>(acc)) * K + r[0];
    r[0] = static_cast<u64>(acc);
    acc >>= 64;
    for (int i = 1; i < 4; ++i) {
        acc += r[i];
        r[i] = static_cast<u64>(acc);
        acc >>= 64;
    }
    cond_sub_mod(r, static_cast<u64>(acc), kFieldK);
}

}  // namespace secp256k1_detail

inline Fe Fe::add(const Fe& o) const {
    Fe out;
    secp256k1_detail::add_mod(n_.v.data(), o.n_.v.data(), out.n_.v.data(),
                              secp256k1_detail::kFieldK);
    return out;
}

inline Fe Fe::sub(const Fe& o) const {
    using secp256k1_detail::u128;
    using secp256k1_detail::u64;
    // a - b, then + p if it borrowed; + p is - K mod 2^256, and after a
    // borrow the wrapped difference is at least K + 1, so that cannot
    // borrow again.
    Fe out;
    u64 borrow = 0;
    for (int i = 0; i < 4; ++i) {
        u128 d = static_cast<u128>(n_.v[i]) - o.n_.v[i] - borrow;
        out.n_.v[i] = static_cast<u64>(d);
        borrow = static_cast<u64>(d >> 64) & 1;
    }
    const u64 k = secp256k1_detail::kFieldK[0] & (0 - borrow);
    borrow = 0;
    for (int i = 0; i < 4; ++i) {
        u128 d = static_cast<u128>(out.n_.v[i]) - (i == 0 ? k : 0) - borrow;
        out.n_.v[i] = static_cast<u64>(d);
        borrow = static_cast<u64>(d >> 64) & 1;
    }
    return out;
}

inline Fe Fe::negate() const { return Fe().sub(*this); }

inline Fe Fe::mul(const Fe& o) const {
    secp256k1_detail::u64 t[8];
    secp256k1_detail::mul_512(n_.v.data(), o.n_.v.data(), t);
    Fe out;
    secp256k1_detail::fe_reduce_512(t, out.n_.v.data());
    return out;
}

inline Fe Fe::sqr() const {
    secp256k1_detail::u64 t[8];
    secp256k1_detail::sqr_512(n_.v.data(), t);
    Fe out;
    secp256k1_detail::fe_reduce_512(t, out.n_.v.data());
    return out;
}

}  // namespace neo::crypto
