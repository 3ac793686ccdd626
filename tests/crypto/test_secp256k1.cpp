#include "crypto/secp256k1.hpp"

#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"

namespace neo::crypto {
namespace {

Fe fe_from_hex(std::string_view h) {
    auto f = Fe::from_be_bytes_checked(from_hex_strict(h));
    EXPECT_TRUE(f.has_value());
    return *f;
}

U256 u256_from_hex(std::string_view h) { return U256::from_be_bytes(from_hex_strict(h)); }

// ---------- U256 ----------

TEST(U256, BeBytesRoundTrip) {
    Bytes b = from_hex_strict("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20");
    U256 x = U256::from_be_bytes(b);
    Digest32 back = x.to_be_bytes();
    EXPECT_TRUE(std::equal(b.begin(), b.end(), back.begin()));
}

TEST(U256, LimbLayout) {
    U256 x = u256_from_hex("0000000000000004000000000000000300000000000000020000000000000001");
    EXPECT_EQ(x.v[0], 1u);
    EXPECT_EQ(x.v[1], 2u);
    EXPECT_EQ(x.v[2], 3u);
    EXPECT_EQ(x.v[3], 4u);
}

TEST(U256, Compare) {
    U256 a = u256_from_hex("0000000000000000000000000000000000000000000000000000000000000001");
    U256 b = u256_from_hex("0000000000000000000000000000000100000000000000000000000000000000");
    EXPECT_EQ(u256_cmp(a, b), -1);
    EXPECT_EQ(u256_cmp(b, a), 1);
    EXPECT_EQ(u256_cmp(a, a), 0);
}

TEST(U256, BitAccess) {
    U256 x = u256_from_hex("8000000000000000000000000000000000000000000000000000000000000001");
    EXPECT_TRUE(x.bit(0));
    EXPECT_FALSE(x.bit(1));
    EXPECT_TRUE(x.bit(255));
}

// ---------- Field ----------

TEST(Field, AddSubInverse) {
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe b = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.add(b).sub(b), a);
        EXPECT_EQ(a.sub(b).add(b), a);
    }
}

TEST(Field, AddCommutative) {
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe b = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.add(b), b.add(a));
    }
}

TEST(Field, MulCommutativeAssociative) {
    Rng rng(3);
    for (int i = 0; i < 30; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe b = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe c = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.mul(b), b.mul(a));
        EXPECT_EQ(a.mul(b).mul(c), a.mul(b.mul(c)));
    }
}

TEST(Field, Distributive) {
    Rng rng(4);
    for (int i = 0; i < 30; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe b = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe c = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }
}

TEST(Field, MulIdentityAndZero) {
    Fe a = fe_from_hex("00000000000000000000000000000000000000000000000000000000deadbeef");
    EXPECT_EQ(a.mul(Fe::one()), a);
    EXPECT_TRUE(a.mul(Fe::zero()).is_zero());
}

TEST(Field, Inverse) {
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        if (a.is_zero()) continue;
        EXPECT_EQ(a.mul(a.inverse()), Fe::one());
    }
}

TEST(Field, NegateAddsToZero) {
    Rng rng(6);
    for (int i = 0; i < 20; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_TRUE(a.add(a.negate()).is_zero());
    }
    EXPECT_TRUE(Fe::zero().negate().is_zero());
}

// p-1 squared: (-1)^2 = 1.
TEST(Field, PMinusOneSquared) {
    Fe neg1 = Fe::one().negate();
    EXPECT_EQ(neg1.sqr(), Fe::one());
}

TEST(Field, KnownProduct) {
    // 2 * (p+1)/2 = 1 mod p  <=>  inverse(2) = (p+1)/2.
    Fe two = Fe::from_u64(2);
    Fe inv2 = two.inverse();
    EXPECT_EQ(two.mul(inv2), Fe::one());
    // (p+1)/2 = 7fffffff ffffffff ffffffff ffffffff ffffffff ffffffff ffffffff 7ffffe18
    Fe expect = fe_from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffff7ffffe18");
    EXPECT_EQ(inv2, expect);
}

TEST(Field, RejectsValueAboveP) {
    // p itself must be rejected by the checked parser.
    auto f = Fe::from_be_bytes_checked(
        from_hex_strict("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
    EXPECT_FALSE(f.has_value());
    auto ok = Fe::from_be_bytes_checked(
        from_hex_strict("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e"));
    EXPECT_TRUE(ok.has_value());
}

TEST(Field, FromU256ReducesModP) {
    // p + 5 reduces to 5.
    U256 p_plus5 = u256_from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc34");
    EXPECT_EQ(Fe::from_u256(p_plus5), Fe::from_u64(5));
}

TEST(Field, BatchInverseMatchesIndividual) {
    Rng rng(7);
    std::vector<Fe> elems;
    for (int i = 0; i < 17; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        if (a.is_zero()) a = Fe::one();
        elems.push_back(a);
    }
    std::vector<Fe> batch = elems;
    fe_batch_inverse(batch.data(), batch.size());
    for (std::size_t i = 0; i < elems.size(); ++i) {
        EXPECT_EQ(batch[i], elems[i].inverse()) << i;
    }
}

// ---------- Scalar ----------

TEST(Scalar, AddWrapsModN) {
    // (n-1) + 2 = 1 mod n.
    Scalar n_minus1 = *Scalar::from_be_bytes_checked(
        from_hex_strict("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140"));
    EXPECT_EQ(n_minus1.add(Scalar::from_u64(2)), Scalar::one());
}

TEST(Scalar, MulInverse) {
    Rng rng(8);
    for (int i = 0; i < 20; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        if (a.is_zero()) continue;
        EXPECT_EQ(a.mul(a.inverse()), Scalar::one());
    }
}

TEST(Scalar, MulCommutative) {
    Rng rng(9);
    for (int i = 0; i < 20; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar b = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_EQ(a.mul(b), b.mul(a));
    }
}

TEST(Scalar, NegateAddsToZero) {
    Rng rng(10);
    for (int i = 0; i < 20; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_TRUE(a.add(a.negate()).is_zero());
    }
}

TEST(Scalar, CheckedParseRejectsN) {
    auto s = Scalar::from_be_bytes_checked(
        from_hex_strict("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"));
    EXPECT_FALSE(s.has_value());
}

TEST(Scalar, ReduceHandlesMaxValue) {
    // 2^256 - 1 mod n = 2^256 - 1 - n = K - 1 where K = 2^256 - n.
    Scalar s = Scalar::from_be_bytes_reduce(Bytes(32, 0xff));
    Scalar expect = *Scalar::from_be_bytes_checked(
        from_hex_strict("000000000000000000000000000000014551231950b75fc4402da1732fc9bebe"));
    EXPECT_EQ(s, expect);
}

// ---------- Group ----------

TEST(Point, GeneratorOnCurve) {
    EXPECT_TRUE(AffinePoint::generator().on_curve());
}

TEST(Point, KnownDoubleOfG) {
    AffinePoint g2 = point_mul(AffinePoint::generator(), Scalar::from_u64(2));
    EXPECT_EQ(to_hex(BytesView(g2.x.to_be_bytes().data(), 32)),
              "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
    EXPECT_EQ(to_hex(BytesView(g2.y.to_be_bytes().data(), 32)),
              "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Point, GeneratorMulMatchesPointMul) {
    Rng rng(11);
    for (int i = 0; i < 10; ++i) {
        Scalar k = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_EQ(generator_mul(k), point_mul(AffinePoint::generator(), k)) << i;
    }
}

TEST(Point, SmallMultiplesViaAddition) {
    AffinePoint g = AffinePoint::generator();
    AffinePoint acc = g;
    for (std::uint64_t k = 2; k <= 16; ++k) {
        acc = point_add(acc, g);
        EXPECT_EQ(acc, generator_mul(Scalar::from_u64(k))) << k;
        EXPECT_TRUE(acc.on_curve()) << k;
    }
}

TEST(Point, NTimesGIsIdentity) {
    // n * G = infinity; (n-1) * G = -G.
    Scalar n_minus1 = Scalar::zero().add(Scalar::from_u64(1).negate());
    AffinePoint neg_g = generator_mul(n_minus1);
    AffinePoint g = AffinePoint::generator();
    EXPECT_EQ(neg_g.x, g.x);
    EXPECT_EQ(neg_g.y, g.y.negate());
    AffinePoint identity = point_add(neg_g, g);
    EXPECT_TRUE(identity.infinity);
}

TEST(Point, AdditionCommutative) {
    AffinePoint a = generator_mul(Scalar::from_u64(5));
    AffinePoint b = generator_mul(Scalar::from_u64(11));
    EXPECT_EQ(point_add(a, b), point_add(b, a));
}

TEST(Point, AdditionMatchesScalarSum) {
    Rng rng(12);
    for (int i = 0; i < 8; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar b = Scalar::from_be_bytes_reduce(rng.bytes(32));
        AffinePoint lhs = point_add(generator_mul(a), generator_mul(b));
        AffinePoint rhs = generator_mul(a.add(b));
        EXPECT_EQ(lhs, rhs) << i;
    }
}

TEST(Point, IdentityIsNeutral) {
    AffinePoint g = AffinePoint::generator();
    AffinePoint inf;
    EXPECT_EQ(point_add(g, inf), g);
    EXPECT_EQ(point_add(inf, g), g);
    EXPECT_TRUE(point_add(inf, inf).infinity);
}

TEST(Point, MulByZeroIsIdentity) {
    EXPECT_TRUE(generator_mul(Scalar::zero()).infinity);
    EXPECT_TRUE(point_mul(AffinePoint::generator(), Scalar::zero()).infinity);
}

TEST(Point, DoubleMulMatchesSeparate) {
    Rng rng(13);
    AffinePoint q = generator_mul(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    for (int i = 0; i < 5; ++i) {
        Scalar u1 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar u2 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        AffinePoint lhs = double_mul(u1, q, u2);
        AffinePoint rhs = point_add(generator_mul(u1), point_mul(q, u2));
        EXPECT_EQ(lhs, rhs) << i;
    }
}

TEST(Point, SerializeParseRoundTrip) {
    AffinePoint p = generator_mul(Scalar::from_u64(0x1234567));
    auto parsed = AffinePoint::parse(p.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
}

TEST(Point, ParseRejectsOffCurve) {
    Bytes b = AffinePoint::generator().serialize();
    b[63] ^= 1;  // perturb y
    EXPECT_FALSE(AffinePoint::parse(b).has_value());
}

TEST(Point, ParseRejectsBadLength) {
    EXPECT_FALSE(AffinePoint::parse(Bytes(63, 0)).has_value());
    EXPECT_FALSE(AffinePoint::parse(Bytes(65, 0)).has_value());
}

TEST(Point, MulDistributesOverAdd) {
    // k(P + Q) == kP + kQ
    AffinePoint p = generator_mul(Scalar::from_u64(3));
    AffinePoint q = generator_mul(Scalar::from_u64(77));
    Scalar k = Scalar::from_u64(0xabcdef);
    EXPECT_EQ(point_mul(point_add(p, q), k), point_add(point_mul(p, k), point_mul(q, k)));
}

// ---------- verification-side fast paths ----------

TEST(Field, SqrMatchesMul) {
    Rng rng(401);
    for (int i = 0; i < 32; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.sqr(), a.mul(a)) << i;
    }
}

TEST(Field, VartimeInverseMatchesFermat) {
    Rng rng(402);
    for (int i = 0; i < 16; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        if (a.is_zero()) continue;
        EXPECT_EQ(a.inverse_vartime(), a.inverse()) << i;
    }
    EXPECT_EQ(Fe::one().inverse_vartime(), Fe::one());
}

TEST(Scalar, SqrMatchesMul) {
    Rng rng(403);
    for (int i = 0; i < 32; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_EQ(a.sqr(), a.mul(a)) << i;
    }
}

TEST(Scalar, VartimeInverseMatchesFermat) {
    Rng rng(404);
    for (int i = 0; i < 16; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        if (a.is_zero()) continue;
        EXPECT_EQ(a.inverse_vartime(), a.inverse()) << i;
    }
    EXPECT_EQ(Scalar::one().inverse_vartime(), Scalar::one());
}

TEST(Scalar, BatchInverseMatchesIndividual) {
    Rng rng(405);
    std::vector<Scalar> elems;
    for (int i = 0; i < 9; ++i) elems.push_back(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    std::vector<Scalar> expect;
    for (const Scalar& s : elems) expect.push_back(s.inverse());
    scalar_batch_inverse(elems.data(), elems.size());
    for (std::size_t i = 0; i < elems.size(); ++i) EXPECT_EQ(elems[i], expect[i]) << i;
}

TEST(QTable, DoubleMulMatchesGeneric) {
    Rng rng(406);
    AffinePoint q = generator_mul(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    QTable table(q);
    for (int i = 0; i < 8; ++i) {
        Scalar u1 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar u2 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_EQ(table.double_mul(u1, u2), double_mul(u1, q, u2)) << i;
    }
    // Small / degenerate scalars exercise the wNAF edge cases.
    EXPECT_EQ(table.double_mul(Scalar(), Scalar::one()), q);
    EXPECT_EQ(table.double_mul(Scalar::one(), Scalar()), AffinePoint::generator());
    EXPECT_TRUE(table.double_mul(Scalar(), Scalar()).infinity);
}

TEST(QTable, CheckRMatchesAffineComparison) {
    Rng rng(407);
    AffinePoint q = generator_mul(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    QTable table(q);
    for (int i = 0; i < 8; ++i) {
        Scalar u1 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar u2 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        AffinePoint p = double_mul(u1, q, u2);
        ASSERT_FALSE(p.infinity);
        Digest32 px = p.x.to_be_bytes();
        Scalar r = Scalar::from_be_bytes_reduce(BytesView(px.data(), px.size()));
        EXPECT_TRUE(table.double_mul_check_r(u1, u2, r)) << i;
        EXPECT_FALSE(table.double_mul_check_r(u1, u2, r.add(Scalar::one()))) << i;
    }
}

// ---------- differential tests against a slow reference ----------
//
// The reference lives only here: 32-bit-digit schoolbook products and
// bit-serial reduction, sharing no code with the fixed-sequence limb
// arithmetic it checks.

using Limbs = std::array<std::uint64_t, 4>;

Limbs limbs_of(const U256& x) { return x.v; }

// a * b as eight 64-bit limbs, via 32-bit digits.
std::array<std::uint64_t, 8> ref_mul(const Limbs& a, const Limbs& b) {
    std::uint32_t x[8], y[8];
    for (int i = 0; i < 4; ++i) {
        x[2 * i] = static_cast<std::uint32_t>(a[i]);
        x[2 * i + 1] = static_cast<std::uint32_t>(a[i] >> 32);
        y[2 * i] = static_cast<std::uint32_t>(b[i]);
        y[2 * i + 1] = static_cast<std::uint32_t>(b[i] >> 32);
    }
    std::uint32_t z[16] = {};
    for (int i = 0; i < 8; ++i) {
        std::uint64_t carry = 0;
        for (int j = 0; j < 8; ++j) {
            std::uint64_t cur = static_cast<std::uint64_t>(x[i]) * y[j] + z[i + j] + carry;
            z[i + j] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
        }
        z[i + 8] = static_cast<std::uint32_t>(carry);
    }
    std::array<std::uint64_t, 8> out{};
    for (int i = 0; i < 8; ++i) out[i] = z[2 * i] | (static_cast<std::uint64_t>(z[2 * i + 1]) << 32);
    return out;
}

// r >= m over five limbs (m has four).
bool ref_geq(const std::uint64_t r[5], const Limbs& m) {
    if (r[4] != 0) return true;
    for (int i = 3; i >= 0; --i) {
        if (r[i] != m[i]) return r[i] > m[i];
    }
    return true;
}

void ref_sub_in_place(std::uint64_t r[5], const Limbs& m) {
    std::uint64_t borrow = 0;
    for (int i = 0; i < 5; ++i) {
        std::uint64_t mi = i < 4 ? m[i] : 0;
        std::uint64_t d = r[i] - mi - borrow;
        borrow = (r[i] < mi || (r[i] == mi && borrow)) ? 1 : 0;
        r[i] = d;
    }
}

// t mod m for a value of `nlimbs` limbs, one bit at a time.
Limbs ref_mod(const std::uint64_t* t, int nlimbs, const Limbs& m) {
    std::uint64_t r[5] = {};
    for (int bit = 64 * nlimbs - 1; bit >= 0; --bit) {
        for (int i = 4; i > 0; --i) r[i] = (r[i] << 1) | (r[i - 1] >> 63);
        r[0] = (r[0] << 1) | ((t[bit / 64] >> (bit % 64)) & 1);
        if (ref_geq(r, m)) ref_sub_in_place(r, m);
    }
    return {r[0], r[1], r[2], r[3]};
}

Limbs ref_mulmod(const Limbs& a, const Limbs& b, const Limbs& m) {
    auto t = ref_mul(a, b);
    return ref_mod(t.data(), 8, m);
}

Limbs ref_addmod(const Limbs& a, const Limbs& b, const Limbs& m) {
    std::uint64_t t[5] = {};
    unsigned __int128 acc = 0;
    for (int i = 0; i < 4; ++i) {
        acc += static_cast<unsigned __int128>(a[i]) + b[i];
        t[i] = static_cast<std::uint64_t>(acc);
        acc >>= 64;
    }
    t[4] = static_cast<std::uint64_t>(acc);
    return ref_mod(t, 5, m);
}

Limbs ref_submod(const Limbs& a, const Limbs& b, const Limbs& m) {
    // a + (m - b), with m - b computed as a five-limb value.
    std::uint64_t mb[5] = {m[0], m[1], m[2], m[3], 0};
    ref_sub_in_place(mb, b);
    return ref_addmod(a, {mb[0], mb[1], mb[2], mb[3]}, m);
}

// Operands that hit the carry paths: random limbs mixed with 0, 1, all
// ones and the top bit, reduced mod m by the reference.
Limbs stress_operand(Rng& rng, const Limbs& m) {
    static constexpr std::uint64_t kSpecial[] = {0, 1, ~0ull, 1ull << 63, ~0ull - 1,
                                                 0xFFFFFFFEFFFFFC2Full, 0x1000003D1ull};
    Limbs raw;
    bool structured = rng.next() % 2 == 0;
    for (auto& limb : raw) {
        std::uint64_t pick = rng.next();
        limb = structured && pick % 3 != 0 ? kSpecial[pick % std::size(kSpecial)] : rng.next();
    }
    return ref_mod(raw.data(), 4, m);
}

Fe fe_of(const Limbs& x) {
    U256 u;
    u.v = x;
    return Fe::from_u256(u);
}

Scalar scalar_of(const Limbs& x) {
    U256 u;
    u.v = x;
    return Scalar::from_u256_reduce(u);
}

std::vector<Limbs> edge_values(const Limbs& m) {
    auto minus = [&m](std::uint64_t d) {
        std::uint64_t r[5] = {m[0], m[1], m[2], m[3], 0};
        ref_sub_in_place(r, {d, 0, 0, 0});
        return Limbs{r[0], r[1], r[2], r[3]};
    };
    Limbs half = {(m[0] >> 1) | (m[1] << 63), (m[1] >> 1) | (m[2] << 63),
                  (m[2] >> 1) | (m[3] << 63), m[3] >> 1};  // (m - 1) / 2
    Limbs half_up = ref_addmod(half, {1, 0, 0, 0}, m);
    std::vector<Limbs> out = {
        {0, 0, 0, 0}, {1, 0, 0, 0}, {2, 0, 0, 0}, minus(1), minus(2), half, half_up,
        {~0ull, 0, 0, 0}, {~0ull, ~0ull, 0, 0}, {~0ull, ~0ull, ~0ull, 0},
        {0, 0, 0, 1ull << 63}, {0, ~0ull, ~0ull, ~0ull}, {~0ull, 0, ~0ull, 0},
    };
    out.push_back({~0ull, ~0ull, ~0ull, ~0ull});  // 2^256 - 1
    // Raw limb patterns at or above m stand for their residues.
    for (Limbs& x : out) x = ref_mod(x.data(), 4, m);
    return out;
}

TEST(FieldDifferential, EdgeValuesMatchReference) {
    const Limbs p = limbs_of(field_prime_u256());
    auto edges = edge_values(p);
    for (const Limbs& a : edges) {
        for (const Limbs& b : edges) {
            Fe fa = fe_of(a), fb = fe_of(b);
            EXPECT_EQ(limbs_of(fa.mul(fb).raw()), ref_mulmod(a, b, p));
            EXPECT_EQ(limbs_of(fa.add(fb).raw()), ref_addmod(a, b, p));
            EXPECT_EQ(limbs_of(fa.sub(fb).raw()), ref_submod(a, b, p));
        }
        Fe fa = fe_of(a);
        EXPECT_EQ(limbs_of(fa.sqr().raw()), ref_mulmod(a, a, p));
        EXPECT_EQ(limbs_of(fa.negate().raw()), ref_submod({0, 0, 0, 0}, a, p));
    }
}

TEST(ScalarDifferential, EdgeValuesMatchReference) {
    const Limbs n = limbs_of(scalar_order_u256());
    auto edges = edge_values(n);
    for (const Limbs& a : edges) {
        for (const Limbs& b : edges) {
            Scalar sa = scalar_of(a), sb = scalar_of(b);
            EXPECT_EQ(limbs_of(sa.mul(sb).raw()), ref_mulmod(a, b, n));
            EXPECT_EQ(limbs_of(sa.add(sb).raw()), ref_addmod(a, b, n));
        }
        Scalar sa = scalar_of(a);
        EXPECT_EQ(limbs_of(sa.sqr().raw()), ref_mulmod(a, a, n));
        EXPECT_EQ(limbs_of(sa.negate().raw()), ref_submod({0, 0, 0, 0}, a, n));
    }
}

TEST(FieldDifferential, RandomProductsMatchReference) {
    const Limbs p = limbs_of(field_prime_u256());
    Rng rng(501);
    for (int i = 0; i < 100000; ++i) {
        Limbs a = stress_operand(rng, p), b = stress_operand(rng, p);
        Fe fa = fe_of(a), fb = fe_of(b);
        ASSERT_EQ(limbs_of(fa.mul(fb).raw()), ref_mulmod(a, b, p)) << i;
        if (i % 4 == 0) {
            ASSERT_EQ(limbs_of(fa.sqr().raw()), ref_mulmod(a, a, p)) << i;
            ASSERT_EQ(limbs_of(fa.add(fb).raw()), ref_addmod(a, b, p)) << i;
            ASSERT_EQ(limbs_of(fa.sub(fb).raw()), ref_submod(a, b, p)) << i;
        }
    }
}

TEST(ScalarDifferential, RandomProductsMatchReference) {
    const Limbs n = limbs_of(scalar_order_u256());
    Rng rng(502);
    for (int i = 0; i < 100000; ++i) {
        Limbs a = stress_operand(rng, n), b = stress_operand(rng, n);
        Scalar sa = scalar_of(a), sb = scalar_of(b);
        ASSERT_EQ(limbs_of(sa.mul(sb).raw()), ref_mulmod(a, b, n)) << i;
        if (i % 4 == 0) {
            ASSERT_EQ(limbs_of(sa.sqr().raw()), ref_mulmod(a, a, n)) << i;
            ASSERT_EQ(limbs_of(sa.add(sb).raw()), ref_addmod(a, b, n)) << i;
        }
    }
}

TEST(FieldDifferential, WindowInverseMatchesVartimeOnEdges) {
    const Limbs p = limbs_of(field_prime_u256());
    for (const Limbs& a : edge_values(p)) {
        Fe fa = fe_of(a);
        if (fa.is_zero()) continue;
        EXPECT_EQ(fa.inverse(), fa.inverse_vartime());
        EXPECT_EQ(fa.mul(fa.inverse()), Fe::one());
    }
}

TEST(ScalarDifferential, WindowInverseMatchesVartimeOnEdges) {
    const Limbs n = limbs_of(scalar_order_u256());
    for (const Limbs& a : edge_values(n)) {
        Scalar sa = scalar_of(a);
        if (sa.is_zero()) continue;
        EXPECT_EQ(sa.inverse(), sa.inverse_vartime());
        EXPECT_EQ(sa.mul(sa.inverse()), Scalar::one());
    }
}

// ---------- GLV endomorphism ----------

TEST(Glv, RootsOfUnity) {
    Scalar lambda = glv_lambda();
    EXPECT_NE(lambda, Scalar::one());
    EXPECT_EQ(lambda.sqr().mul(lambda), Scalar::one());
    Fe beta = glv_beta();
    EXPECT_NE(beta, Fe::one());
    EXPECT_EQ(beta.sqr().mul(beta), Fe::one());
}

TEST(Glv, LambdaActsAsBetaOnX) {
    // Generic double-and-add, which shares nothing with the GLV walk.
    const AffinePoint g = AffinePoint::generator();
    AffinePoint lg = point_mul(g, glv_lambda());
    EXPECT_EQ(lg.x, g.x.mul(glv_beta()));
    EXPECT_EQ(lg.y, g.y);
    Rng rng(503);
    AffinePoint q = generator_mul(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    AffinePoint lq = point_mul(q, glv_lambda());
    EXPECT_EQ(lq, (AffinePoint{q.x.mul(glv_beta()), q.y, false}));
}

// |x| for a split half (negative halves come back as n - |x|), asserting
// it is below 2^129.
void expect_short_half(const Scalar& half, const Scalar& k) {
    U256 mag = half.raw().v[3] != 0 ? half.negate().raw() : half.raw();
    EXPECT_EQ(mag.v[3], 0u) << to_hex(BytesView(k.to_be_bytes().data(), 32));
    EXPECT_LE(mag.v[2], 1u) << to_hex(BytesView(k.to_be_bytes().data(), 32));
}

TEST(Glv, SplitRecombinesWithShortHalves) {
    const Limbs n = limbs_of(scalar_order_u256());
    std::vector<Scalar> ks;
    for (const Limbs& e : edge_values(n)) ks.push_back(scalar_of(e));
    for (int bits : {64, 127, 128, 129, 192, 255}) {
        U256 pow2;
        pow2.v[static_cast<std::size_t>(bits / 64)] = 1ull << (bits % 64);
        Scalar s = Scalar::from_u256_reduce(pow2);
        ks.push_back(s);
        ks.push_back(s.negate());
        ks.push_back(s.add(Scalar::one()).negate());
    }
    ks.push_back(glv_lambda());
    ks.push_back(glv_lambda().negate());
    ks.push_back(glv_lambda().sqr());
    Rng rng(504);
    for (int i = 0; i < 20000; ++i) ks.push_back(Scalar::from_be_bytes_reduce(rng.bytes(32)));

    for (const Scalar& k : ks) {
        auto [k1, k2] = glv_split(k);
        EXPECT_EQ(k1.add(k2.mul(glv_lambda())), k);
        expect_short_half(k1, k);
        expect_short_half(k2, k);
    }
}

TEST(Glv, QTableMatchesGenericOnBoundaryScalars) {
    Rng rng(505);
    AffinePoint q = generator_mul(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    QTable table(q);
    const Scalar u1 = Scalar::from_be_bytes_reduce(rng.bytes(32));
    const Scalar minus_one = Scalar::one().negate();
    for (const Scalar& u2 : {minus_one, glv_lambda(), glv_lambda().negate(),
                             glv_lambda().add(Scalar::one()), Scalar::from_u64(2).negate()}) {
        EXPECT_EQ(table.double_mul(u1, u2), double_mul(u1, q, u2));
    }
    // u2 = λ: k1 = 0, k2 = 1, so the whole Q-side comes from the λ table.
    EXPECT_EQ(table.double_mul(Scalar(), glv_lambda()), (AffinePoint{q.x.mul(glv_beta()), q.y, false}));
}

}  // namespace
}  // namespace neo::crypto
