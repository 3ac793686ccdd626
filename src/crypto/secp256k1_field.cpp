// U256, field (mod p) and scalar (mod n) arithmetic for secp256k1.
#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "crypto/secp256k1.hpp"

namespace neo::crypto {

namespace {

using secp256k1_detail::add_mod;
using secp256k1_detail::cond_sub_mod;
using secp256k1_detail::kFieldK;
using secp256k1_detail::mul_512;
using secp256k1_detail::sqr_512;
using secp256k1_detail::u128;
using secp256k1_detail::u64;

// p = 2^256 - kFieldK, little-endian limbs.
constexpr U256 kP{{0xFFFFFFFEFFFFFC2Full, 0xFFFFFFFFFFFFFFFFull,
                   0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}};

// Group order n and K = 2^256 - n (129 bits, top limb 1).
constexpr U256 kN{{0xBFD25E8CD0364141ull, 0xBAAEDCE6AF48A03Bull,
                   0xFFFFFFFFFFFFFFFEull, 0xFFFFFFFFFFFFFFFFull}};
constexpr u64 kScalarK[4] = {0x402DA1732FC9BEBFull, 0x4551231950B75FC4ull, 0x1ull, 0};

// The Fermat exponents p - 2 and n - 2 (both low limbs are odd and > 2).
constexpr U256 kPMinus2{{kP.v[0] - 2, kP.v[1], kP.v[2], kP.v[3]}};
constexpr U256 kNMinus2{{kN.v[0] - 2, kN.v[1], kN.v[2], kN.v[3]}};

// out = a + b over 4 limbs, returns carry.
u64 add4(const u64 a[4], const u64 b[4], u64 out[4]) {
    u128 carry = 0;
    for (int i = 0; i < 4; ++i) {
        u128 cur = (u128)a[i] + b[i] + carry;
        out[i] = (u64)cur;
        carry = cur >> 64;
    }
    return (u64)carry;
}

// out = a - b over 4 limbs, returns borrow (1 if a < b).
u64 sub4(const u64 a[4], const u64 b[4], u64 out[4]) {
    u64 borrow = 0;
    for (int i = 0; i < 4; ++i) {
        u128 d = (u128)a[i] - b[i] - borrow;
        out[i] = (u64)d;
        borrow = (u64)(d >> 64) & 1;
    }
    return borrow;
}

// out = lo + hi·K: one fold of 2^256 ≡ K (mod n) applied to the value
// lo + hi·2^256. Fixed loop bounds; the NH + 4 output limbs hold every
// carry.
template <int NH>
void fold_scalar_k(const u64 lo[4], const u64 hi[NH], u64 out[NH + 4]) {
    for (int i = 0; i < NH + 4; ++i) out[i] = i < 4 ? lo[i] : 0;
    for (int i = 0; i < NH; ++i) {
        u128 acc = 0;
        for (int j = 0; j < 3; ++j) {
            acc += (u128)hi[i] * kScalarK[j] + out[i + j];
            out[i + j] = (u64)acc;
            acc >>= 64;
        }
        for (int j = i + 3; j < NH + 4; ++j) {
            acc += out[j];
            out[j] = (u64)acc;
            acc >>= 64;
        }
    }
}

// r = t mod n for a 512-bit t, in three fixed folds and one conditional
// subtract (K has 129 bits):
//   t < 2^512              -> m = t_lo + t_hi·K < 2^386   (7 limbs)
//   m                      -> q = m_lo + m_hi·K < 2^259   (5 limbs)
//   q                      -> v = q_lo + q_hi·K < 2^256 + 2^132 < 2n
void scalar_reduce_512(const u64 t[8], u64 r[4]) {
    u64 m[8];
    fold_scalar_k<4>(t, t + 4, m);
    u64 q[7];
    fold_scalar_k<3>(m, m + 4, q);
    u64 v[5];
    fold_scalar_k<1>(q, q + 4, v);
    for (int i = 0; i < 4; ++i) r[i] = v[i];
    cond_sub_mod(r, v[4], kScalarK);
}

// x^e for a public exponent e != 0: a left-to-right sliding window of
// width 5 over the odd powers odd[i] = x^(2i+1). Which squarings and
// multiplies run, and which table entry each multiply reads, depend on e
// alone, never on x; with constant-time mul/sqr the whole routine is
// constant-time in x. For e = p - 2 it costs 252 squarings and 66
// multiplies (one squaring and 15 multiplies build the table); for
// e = n - 2, 252 and 63.
template <class T>
T pow_public_exponent(const T& x, const U256& e) {
    constexpr int kWidth = 5;
    std::array<T, 1 << (kWidth - 1)> odd;
    odd[0] = x;
    const T x2 = x.sqr();
    for (std::size_t i = 1; i < odd.size(); ++i) odd[i] = odd[i - 1].mul(x2);

    T acc = x;
    bool started = false;
    for (int i = 255; i >= 0;) {
        if (!e.bit(i)) {
            if (started) acc = acc.sqr();
            --i;
            continue;
        }
        // The window e[i..lo] is at most kWidth bits and ends on a set bit.
        int lo = std::max(i - kWidth + 1, 0);
        while (!e.bit(lo)) ++lo;
        unsigned digit = 0;
        for (int j = i; j >= lo; --j) {
            digit = (digit << 1) | static_cast<unsigned>(e.bit(j));
            if (started) acc = acc.sqr();
        }
        acc = started ? acc.mul(odd[digit >> 1]) : odd[digit >> 1];
        started = true;
        i = lo - 1;
    }
    return acc;
}

// x >>= 1 over 4 limbs, shifting `top` into bit 255.
void shr1(u64 x[4], u64 top) {
    for (int i = 0; i < 3; ++i) x[i] = (x[i] >> 1) | (x[i + 1] << 63);
    x[3] = (x[3] >> 1) | (top << 63);
}

// Variable-time modular inverse (binary extended GCD) for an ODD modulus m;
// requires gcd(x, m) == 1 and 0 < x < m. Several times faster than
// pow_public_exponent but with value-dependent timing — verification-side
// only.
U256 mod_inverse_vartime(const U256& x, const U256& m) {
    u64 u[4], v[4], x1[4] = {1, 0, 0, 0}, x2[4] = {0, 0, 0, 0};
    std::memcpy(u, x.v.data(), sizeof(u));
    std::memcpy(v, m.v.data(), sizeof(v));

    auto is_one = [](const u64 a[4]) { return a[0] == 1 && (a[1] | a[2] | a[3]) == 0; };
    auto cmp = [](const u64 a[4], const u64 b[4]) {
        for (int i = 3; i >= 0; --i) {
            if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
        }
        return 0;
    };
    // a = (a is even ? a : a + m) / 2  (mod-preserving halving; m is odd so
    // exactly one of a, a+m is even).
    auto half_mod = [&m](u64 a[4]) {
        u64 top = 0;
        if (a[0] & 1) top = add4(a, m.v.data(), a);
        shr1(a, top);
    };
    // a = a - b mod m (a, b < m).
    auto sub_mod = [&m](u64 a[4], const u64 b[4]) {
        if (sub4(a, b, a)) add4(a, m.v.data(), a);
    };

    while (!is_one(u) && !is_one(v)) {
        while ((u[0] & 1) == 0) {
            shr1(u, 0);
            half_mod(x1);
        }
        while ((v[0] & 1) == 0) {
            shr1(v, 0);
            half_mod(x2);
        }
        if (cmp(u, v) >= 0) {
            sub4(u, v, u);
            sub_mod(x1, x2);
        } else {
            sub4(v, u, v);
            sub_mod(x2, x1);
        }
    }

    U256 out;
    std::memcpy(out.v.data(), is_one(u) ? x1 : x2, sizeof(x1));
    return out;
}

}  // namespace

// ---------- U256 ----------

U256 U256::from_be_bytes(BytesView b32) {
    NEO_ASSERT(b32.size() == 32);
    U256 out;
    for (int limb = 0; limb < 4; ++limb) {
        u64 v = 0;
        for (int i = 0; i < 8; ++i) {
            v = (v << 8) | b32[static_cast<std::size_t>((3 - limb) * 8 + i)];
        }
        out.v[static_cast<std::size_t>(limb)] = v;
    }
    return out;
}

Digest32 U256::to_be_bytes() const {
    Digest32 out;
    for (int limb = 0; limb < 4; ++limb) {
        u64 val = v[static_cast<std::size_t>(limb)];
        for (int i = 0; i < 8; ++i) {
            out[static_cast<std::size_t>((3 - limb) * 8 + (7 - i))] =
                static_cast<std::uint8_t>(val >> (8 * i));
        }
    }
    return out;
}

std::uint64_t u256_add(const U256& a, const U256& b, U256* out) {
    return add4(a.v.data(), b.v.data(), out->v.data());
}

const U256& field_prime_u256() { return kP; }
const U256& scalar_order_u256() { return kN; }

int u256_cmp(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
        if (a.v[static_cast<std::size_t>(i)] < b.v[static_cast<std::size_t>(i)]) return -1;
        if (a.v[static_cast<std::size_t>(i)] > b.v[static_cast<std::size_t>(i)]) return 1;
    }
    return 0;
}

// ---------- Fe ----------

Fe Fe::one() { return from_u64(1); }

Fe Fe::from_u64(std::uint64_t x) {
    Fe f;
    f.n_.v[0] = x;
    return f;
}

Fe Fe::from_u256(const U256& x) {
    Fe f;
    f.n_ = x;
    cond_sub_mod(f.n_.v.data(), 0, kFieldK);  // x < 2^256 < 2p
    return f;
}

std::optional<Fe> Fe::from_be_bytes_checked(BytesView b32) {
    if (b32.size() != 32) return std::nullopt;
    U256 x = U256::from_be_bytes(b32);
    if (u256_cmp(x, kP) >= 0) return std::nullopt;
    Fe f;
    f.n_ = x;
    return f;
}

Fe Fe::inverse() const {
    NEO_ASSERT_MSG(!is_zero(), "field inverse of zero");
    return pow_public_exponent(*this, kPMinus2);
}

Fe Fe::inverse_vartime() const {
    NEO_ASSERT_MSG(!is_zero(), "field inverse of zero");
    Fe out;
    out.n_ = mod_inverse_vartime(n_, kP);
    return out;
}

void fe_batch_inverse(Fe* elems, std::size_t count) {
    if (count == 0) return;
    // Montgomery's trick: one inversion + 3(count-1) multiplications.
    std::vector<Fe> prefix(count);
    prefix[0] = elems[0];
    for (std::size_t i = 1; i < count; ++i) prefix[i] = prefix[i - 1].mul(elems[i]);

    Fe inv = prefix[count - 1].inverse_vartime();
    for (std::size_t i = count; i-- > 1;) {
        Fe orig = elems[i];
        elems[i] = inv.mul(prefix[i - 1]);
        inv = inv.mul(orig);
    }
    elems[0] = inv;
}

// ---------- Scalar ----------

Scalar Scalar::one() { return from_u64(1); }

Scalar Scalar::from_u64(std::uint64_t x) {
    Scalar s;
    s.n_.v[0] = x;
    return s;
}

Scalar Scalar::from_u256_reduce(const U256& x) {
    Scalar s;
    s.n_ = x;
    cond_sub_mod(s.n_.v.data(), 0, kScalarK);  // x < 2^256 < 2n
    return s;
}

std::optional<Scalar> Scalar::from_be_bytes_checked(BytesView b32) {
    if (b32.size() != 32) return std::nullopt;
    U256 x = U256::from_be_bytes(b32);
    if (u256_cmp(x, kN) >= 0) return std::nullopt;
    Scalar s;
    s.n_ = x;
    return s;
}

Scalar Scalar::add(const Scalar& o) const {
    Scalar out;
    add_mod(n_.v.data(), o.n_.v.data(), out.n_.v.data(), kScalarK);
    return out;
}

Scalar Scalar::mul(const Scalar& o) const {
    u64 t[8];
    mul_512(n_.v.data(), o.n_.v.data(), t);
    Scalar out;
    scalar_reduce_512(t, out.n_.v.data());
    return out;
}

Scalar Scalar::sqr() const {
    u64 t[8];
    sqr_512(n_.v.data(), t);
    Scalar out;
    scalar_reduce_512(t, out.n_.v.data());
    return out;
}

Scalar Scalar::negate() const {
    // n - x, masked to 0 when x == 0 (x < n, so the subtract never borrows).
    Scalar out;
    sub4(kN.v.data(), n_.v.data(), out.n_.v.data());
    const u64 nonzero = 0 - static_cast<u64>((n_.v[0] | n_.v[1] | n_.v[2] | n_.v[3]) != 0);
    for (u64& limb : out.n_.v) limb &= nonzero;
    return out;
}

Scalar Scalar::inverse() const {
    NEO_ASSERT_MSG(!is_zero(), "scalar inverse of zero");
    return pow_public_exponent(*this, kNMinus2);
}

Scalar Scalar::inverse_vartime() const {
    NEO_ASSERT_MSG(!is_zero(), "scalar inverse of zero");
    Scalar out;
    out.n_ = mod_inverse_vartime(n_, kN);
    return out;
}

void scalar_batch_inverse(Scalar* elems, std::size_t count) {
    if (count == 0) return;
    std::vector<Scalar> prefix(count);
    prefix[0] = elems[0];
    for (std::size_t i = 1; i < count; ++i) prefix[i] = prefix[i - 1].mul(elems[i]);

    Scalar inv = prefix[count - 1].inverse_vartime();
    for (std::size_t i = count; i-- > 1;) {
        Scalar orig = elems[i];
        elems[i] = inv.mul(prefix[i - 1]);
        inv = inv.mul(orig);
    }
    elems[0] = inv;
}

}  // namespace neo::crypto
