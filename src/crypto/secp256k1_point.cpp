// secp256k1 group arithmetic: Jacobian point operations, the generator
// precompute table (mirroring the paper's FPGA coprocessor design, §4.4),
// and scalar multiplication.
#include <algorithm>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/hex.hpp"
#include "crypto/secp256k1.hpp"

namespace neo::crypto {

namespace {

// Jacobian coordinates (X, Y, Z): affine = (X/Z², Y/Z³); Z == 0 is identity.
struct Jac {
    Fe x;
    Fe y;
    Fe z;  // zero => infinity

    bool infinity() const { return z.is_zero(); }
    static Jac identity() { return Jac{Fe::zero(), Fe::one(), Fe::zero()}; }
};

Jac to_jac(const AffinePoint& p) {
    if (p.infinity) return Jac::identity();
    return Jac{p.x, p.y, Fe::one()};
}

// dbl-2007-bl for a = 0.
Jac jac_double(const Jac& p) {
    if (p.infinity() || p.y.is_zero()) return Jac::identity();
    Fe a = p.x.sqr();
    Fe b = p.y.sqr();
    Fe c = b.sqr();
    Fe xb = p.x.add(b);
    Fe d = xb.sqr().sub(a).sub(c);
    d = d.add(d);  // 2*((x+b)^2 - a - c)
    Fe e = a.add(a).add(a);
    Fe f = e.sqr();
    Fe x3 = f.sub(d).sub(d);
    Fe c8 = c.add(c);
    c8 = c8.add(c8);
    c8 = c8.add(c8);
    Fe y3 = e.mul(d.sub(x3)).sub(c8);
    Fe z3 = p.y.mul(p.z);
    z3 = z3.add(z3);
    return Jac{x3, y3, z3};
}

// Textbook general Jacobian addition.
Jac jac_add(const Jac& p, const Jac& q) {
    if (p.infinity()) return q;
    if (q.infinity()) return p;

    Fe z1z1 = p.z.sqr();
    Fe z2z2 = q.z.sqr();
    Fe u1 = p.x.mul(z2z2);
    Fe u2 = q.x.mul(z1z1);
    Fe s1 = p.y.mul(q.z).mul(z2z2);
    Fe s2 = q.y.mul(p.z).mul(z1z1);

    if (u1 == u2) {
        if (s1 == s2) return jac_double(p);
        return Jac::identity();  // P + (-P)
    }

    Fe h = u2.sub(u1);
    Fe r = s2.sub(s1);
    Fe h2 = h.sqr();
    Fe h3 = h.mul(h2);
    Fe u1h2 = u1.mul(h2);
    Fe x3 = r.sqr().sub(h3).sub(u1h2).sub(u1h2);
    Fe y3 = r.mul(u1h2.sub(x3)).sub(s1.mul(h3));
    Fe z3 = p.z.mul(q.z).mul(h);
    return Jac{x3, y3, z3};
}

// Mixed addition with an affine point (Z2 = 1) — the table fast path.
Jac jac_add_affine(const Jac& p, const AffinePoint& q) {
    if (q.infinity) return p;
    if (p.infinity()) return to_jac(q);

    Fe z1z1 = p.z.sqr();
    Fe u2 = q.x.mul(z1z1);
    Fe s2 = q.y.mul(p.z).mul(z1z1);

    if (p.x == u2) {
        if (p.y == s2) return jac_double(p);
        return Jac::identity();
    }

    Fe h = u2.sub(p.x);
    Fe r = s2.sub(p.y);
    Fe h2 = h.sqr();
    Fe h3 = h.mul(h2);
    Fe u1h2 = p.x.mul(h2);
    Fe x3 = r.sqr().sub(h3).sub(u1h2).sub(u1h2);
    Fe y3 = r.mul(u1h2.sub(x3)).sub(p.y.mul(h3));
    Fe z3 = p.z.mul(h);
    return Jac{x3, y3, z3};
}

AffinePoint to_affine(const Jac& p) {
    if (p.infinity()) return AffinePoint{};
    Fe zinv = p.z.inverse();
    Fe zinv2 = zinv.sqr();
    AffinePoint out;
    out.x = p.x.mul(zinv2);
    out.y = p.y.mul(zinv2).mul(zinv);
    out.infinity = false;
    return out;
}

// Generator precompute table: kTable[w][d-1] = d * 256^w * G in affine, for
// w in [0, 32), d in [1, 256). A scalar multiplication of G is then the sum
// of at most 32 table entries — additions only, no doublings. This is the
// software twin of the FPGA "pre-computed stock" of generator multiples
// (8-bit windows, ~590 KB: half the additions of the earlier 4-bit comb for
// a table that still fits comfortably in memory).
struct GenTable {
    AffinePoint entries[32][255];
};

const GenTable& gen_table() {
    static const GenTable* table = [] {
        auto* t = new GenTable();
        std::vector<Jac> jac_entries;
        jac_entries.reserve(32 * 255);

        Jac window_base = to_jac(AffinePoint::generator());
        for (int w = 0; w < 32; ++w) {
            Jac cur = window_base;
            for (int d = 1; d <= 255; ++d) {
                jac_entries.push_back(cur);
                if (d < 255) cur = jac_add(cur, window_base);
            }
            // Advance to 256^(w+1) * G = cur + base (cur is 255*256^w*G).
            window_base = jac_add(cur, window_base);
        }

        // Batch-convert to affine with a single field inversion.
        std::vector<Fe> zs(jac_entries.size());
        for (std::size_t i = 0; i < jac_entries.size(); ++i) zs[i] = jac_entries[i].z;
        fe_batch_inverse(zs.data(), zs.size());
        for (std::size_t i = 0; i < jac_entries.size(); ++i) {
            Fe zinv2 = zs[i].sqr();
            AffinePoint a;
            a.x = jac_entries[i].x.mul(zinv2);
            a.y = jac_entries[i].y.mul(zinv2).mul(zs[i]);
            a.infinity = false;
            t->entries[i / 255][i % 255] = a;
        }
        return t;
    }();
    return *table;
}

Jac gen_mul_jac(const Scalar& k) {
    const GenTable& table = gen_table();
    Jac acc = Jac::identity();
    for (int w = 0; w < 32; ++w) {
        unsigned digit = static_cast<unsigned>(
            (k.raw().v[static_cast<std::size_t>(w / 8)] >> (8 * (w % 8))) & 0xff);
        if (digit != 0) acc = jac_add_affine(acc, table.entries[w][digit - 1]);
    }
    return acc;
}

Jac point_mul_jac(const AffinePoint& p, const Scalar& k) {
    Jac acc = Jac::identity();
    for (int i = 255; i >= 0; --i) {
        acc = jac_double(acc);
        if (k.raw().bit(i)) acc = jac_add_affine(acc, p);
    }
    return acc;
}

// Width-5 wNAF recoding: digits are 0 or odd in [-15, 15]; at most one
// nonzero digit in any 5 consecutive positions (average density 1/6).
// Returns the digit count (<= 257; <= 131 for a GLV half below 2^129).
int wnaf5(const U256& s, std::int8_t digits[257]) {
    // 5 limbs: the "k -= d" step with d < 0 adds up to 15, which can carry
    // past 2^256 for values near the top of the range.
    std::uint64_t k[5] = {s.v[0], s.v[1], s.v[2], s.v[3], 0};
    auto is_zero = [&] { return (k[0] | k[1] | k[2] | k[3] | k[4]) == 0; };
    auto shr1_5 = [&] {
        for (int i = 0; i < 4; ++i) k[i] = (k[i] >> 1) | (k[i + 1] << 63);
        k[4] >>= 1;
    };
    int len = 0;
    while (!is_zero()) {
        std::int8_t d = 0;
        if (k[0] & 1) {
            int m = static_cast<int>(k[0] & 31);  // k mod 32
            d = static_cast<std::int8_t>(m > 16 ? m - 32 : m);
            if (d >= 0) {
                k[0] -= static_cast<std::uint64_t>(d);  // k odd, d <= k: no borrow past limb 0?
                // d <= 15 and k odd >= 1; if k < d the scalar would already
                // have fit in 5 bits and m == k, so d == k. Borrow-free.
            } else {
                std::uint64_t add = static_cast<std::uint64_t>(-d);
                std::uint64_t carry = __builtin_add_overflow(k[0], add, &k[0]) ? 1u : 0u;
                for (int i = 1; i < 5 && carry; ++i) {
                    carry = __builtin_add_overflow(k[i], carry, &k[i]) ? 1u : 0u;
                }
            }
        }
        digits[len++] = d;
        shr1_5();
    }
    return len;
}

AffinePoint affine_negate(const AffinePoint& p) {
    if (p.infinity) return p;
    return AffinePoint{p.x, p.y.negate(), false};
}

// GLV constants. β and λ are the cube roots of unity with λ·(x, y) =
// (β·x, y). The split rounds k against the reduced lattice basis
// v1 = (a1, b1), v2 = (a2, b2) of {(a, b) : a + b·λ ≡ 0 (mod n)}:
//   a1 = b2 = 0x3086d221a7d46bcde86c90e49284eb15
//   b1 = -0xe4437ed6010e88286f547fa90abfe4c3
//   a2 = 0x114ca50f7a8e2f3f657c1108d9d44cfd8
// with g1 = round(2^384·b2/n) and g2 = round(2^384·(-b1)/n) precomputed so
// that c_i = round(k·g_i / 2^384) needs no division. The roots and the
// pairing are checked in tests, and the split's bound |k1|, |k2| < 2^129
// (which a wrong basis or g would break) is checked on random and boundary
// scalars.
struct GlvConstants {
    Fe beta;
    Scalar lambda;
    Scalar minus_lambda;
    U256 g1;
    U256 g2;
    Scalar minus_b1;
    Scalar minus_b2;
};

const GlvConstants& glv() {
    static const GlvConstants c = [] {
        auto scalar = [](std::string_view hex) {
            return Scalar::from_be_bytes_reduce(from_hex_strict(hex));
        };
        GlvConstants k;
        k.beta = *Fe::from_be_bytes_checked(
            from_hex_strict("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"));
        k.lambda = scalar("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
        k.minus_lambda = k.lambda.negate();
        k.g1 = U256::from_be_bytes(
            from_hex_strict("3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031"));
        k.g2 = U256::from_be_bytes(
            from_hex_strict("e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71"));
        k.minus_b1 = scalar("00000000000000000000000000000000e4437ed6010e88286f547fa90abfe4c3");
        k.minus_b2 = scalar("fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c");
        return k;
    }();
    return c;
}

// round(k·g / 2^384): the top 128 bits of the 512-bit product plus its
// bit 383. k < n and g < 2^256 keep the rounded value below 2^128.
Scalar mul_shift_384(const Scalar& k, const U256& g) {
    using secp256k1_detail::u128;
    using secp256k1_detail::u64;
    u64 t[8];
    secp256k1_detail::mul_512(k.raw().v.data(), g.v.data(), t);
    U256 out;
    const u128 acc = static_cast<u128>(t[6]) + (t[5] >> 63);
    out.v[0] = static_cast<u64>(acc);
    out.v[1] = t[7] + static_cast<u64>(acc >> 64);
    return Scalar::from_u256_reduce(out);
}

}  // namespace

AffinePoint AffinePoint::generator() {
    static const AffinePoint g = [] {
        AffinePoint p;
        p.x = *Fe::from_be_bytes_checked(
            from_hex_strict("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"));
        p.y = *Fe::from_be_bytes_checked(
            from_hex_strict("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"));
        p.infinity = false;
        return p;
    }();
    return g;
}

bool AffinePoint::on_curve() const {
    if (infinity) return true;
    Fe lhs = y.sqr();
    Fe rhs = x.sqr().mul(x).add(Fe::from_u64(7));
    return lhs == rhs;
}

Bytes AffinePoint::serialize() const {
    NEO_ASSERT_MSG(!infinity, "cannot serialize the identity point");
    Digest32 xb = x.to_be_bytes();
    Digest32 yb = y.to_be_bytes();
    Bytes out;
    out.reserve(64);
    out.insert(out.end(), xb.begin(), xb.end());
    out.insert(out.end(), yb.begin(), yb.end());
    return out;
}

std::optional<AffinePoint> AffinePoint::parse(BytesView b64) {
    if (b64.size() != 64) return std::nullopt;
    auto x = Fe::from_be_bytes_checked(b64.subspan(0, 32));
    auto y = Fe::from_be_bytes_checked(b64.subspan(32, 32));
    if (!x || !y) return std::nullopt;
    AffinePoint p{*x, *y, false};
    if (!p.on_curve()) return std::nullopt;
    return p;
}

AffinePoint generator_mul(const Scalar& k) { return to_affine(gen_mul_jac(k)); }

AffinePoint point_mul(const AffinePoint& p, const Scalar& k) {
    return to_affine(point_mul_jac(p, k));
}

AffinePoint point_add(const AffinePoint& p, const AffinePoint& q) {
    return to_affine(jac_add(to_jac(p), to_jac(q)));
}

AffinePoint double_mul(const Scalar& u1, const AffinePoint& q, const Scalar& u2) {
    Jac acc = gen_mul_jac(u1);
    acc = jac_add(acc, point_mul_jac(q, u2));
    return to_affine(acc);
}

Fe glv_beta() { return glv().beta; }
Scalar glv_lambda() { return glv().lambda; }

std::pair<Scalar, Scalar> glv_split(const Scalar& k) {
    const GlvConstants& c = glv();
    Scalar c1 = mul_shift_384(k, c.g1);
    Scalar c2 = mul_shift_384(k, c.g2);
    Scalar k2 = c1.mul(c.minus_b1).add(c2.mul(c.minus_b2));
    Scalar k1 = k2.mul(c.minus_lambda).add(k);
    return {k1, k2};
}

// ----------------------------------------------------------------- QTable

QTable::QTable(const AffinePoint& q) : base_(q) {
    if (q.infinity) {
        // All identity; adds skip.
        odd_.fill(AffinePoint{});
        odd_lambda_.fill(AffinePoint{});
        return;
    }
    // odd_[i] = (2i+1)·Q via repeated addition of 2Q, then one batch
    // normalisation. n is prime and > 15, so no odd multiple of a
    // non-identity point can be the identity.
    Jac q2 = jac_double(to_jac(q));
    std::array<Jac, 8> jacs;
    jacs[0] = to_jac(q);
    for (std::size_t i = 1; i < jacs.size(); ++i) jacs[i] = jac_add(jacs[i - 1], q2);

    std::array<Fe, 8> zs;
    for (std::size_t i = 0; i < jacs.size(); ++i) zs[i] = jacs[i].z;
    fe_batch_inverse(zs.data(), zs.size());
    const Fe beta = glv_beta();
    for (std::size_t i = 0; i < jacs.size(); ++i) {
        Fe zinv2 = zs[i].sqr();
        odd_[i].x = jacs[i].x.mul(zinv2);
        odd_[i].y = jacs[i].y.mul(zinv2).mul(zs[i]);
        odd_[i].infinity = false;
        odd_lambda_[i] = AffinePoint{odd_[i].x.mul(beta), odd_[i].y, false};
    }
}

namespace {

// One GLV half of a wNAF walk: |k| and whether the half is negative (see
// glv_split), recoded into digits.
struct WnafHalf {
    std::int8_t digits[257];
    int len = 0;
    bool negative = false;

    explicit WnafHalf(const Scalar& k) {
        negative = k.raw().v[3] != 0;
        len = wnaf5(negative ? k.negate().raw() : k.raw(), digits);
    }

    // Adds digit i's odd multiple from `odd` (negated when the digit and
    // the half's sign disagree).
    void add_digit(Jac& acc, const std::array<AffinePoint, 8>& odd, int i) const {
        if (i >= len || digits[i] == 0) return;
        int d = digits[i];
        const AffinePoint& p = odd[static_cast<std::size_t>(((d > 0 ? d : -d) - 1) / 2)];
        acc = jac_add_affine(acc, (d < 0) != negative ? affine_negate(p) : p);
    }
};

// Shared accumulation for QTable's two entry points: u1·G + u2·Q in
// Jacobian coordinates. u2 = k1 + k2·λ, so u2·Q = k1·Q + k2·(λQ): both
// halves walk their wNAF-5 digits over the precomputed odd multiples in
// one shared doubling loop of ~129 steps. The G-side (window comb,
// additions only) is appended after the loop.
Jac qtable_double_mul_jac(const std::array<AffinePoint, 8>& odd,
                          const std::array<AffinePoint, 8>& odd_lambda, const Scalar& u1,
                          const Scalar& u2) {
    auto [k1, k2] = glv_split(u2);
    const WnafHalf h1(k1);
    const WnafHalf h2(k2);
    Jac acc = Jac::identity();
    for (int i = std::max(h1.len, h2.len) - 1; i >= 0; --i) {
        acc = jac_double(acc);
        h1.add_digit(acc, odd, i);
        h2.add_digit(acc, odd_lambda, i);
    }
    return jac_add(acc, gen_mul_jac(u1));
}

}  // namespace

AffinePoint QTable::double_mul(const Scalar& u1, const Scalar& u2) const {
    return to_affine(qtable_double_mul_jac(odd_, odd_lambda_, u1, u2));
}

bool QTable::double_mul_check_r(const Scalar& u1, const Scalar& u2, const Scalar& r) const {
    Jac p = qtable_double_mul_jac(odd_, odd_lambda_, u1, u2);
    if (p.infinity()) return false;
    // x(P) mod n == r  ⟺  x(P) == r̃ for r̃ in {r, r+n if r+n < p}
    // (x < p < 2n, so at most one wrap). Projectively, x(P) == r̃ is
    // X == r̃·Z² — no field inversion needed.
    Fe z2 = p.z.sqr();
    if (Fe::from_u256(r.raw()).mul(z2) == p.x) return true;
    U256 rn;
    if (u256_add(r.raw(), scalar_order_u256(), &rn) == 0 &&
        u256_cmp(rn, field_prime_u256()) < 0) {
        if (Fe::from_u256(rn).mul(z2) == p.x) return true;
    }
    return false;
}

}  // namespace neo::crypto
