// Unit tests of the benchmark's own derivations (src/derive.hpp).
#include <gtest/gtest.h>

#include "derive.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond) {
    EXPECT_EQ(samples_beyond(1000, 990), 10u);
    EXPECT_TRUE(percentile_supported(1000, 990));
    EXPECT_EQ(samples_beyond(999, 990), 9u);
    EXPECT_FALSE(percentile_supported(999, 990));
    EXPECT_TRUE(percentile_supported(10'000, 999));
    EXPECT_FALSE(percentile_supported(9'999, 999));
    EXPECT_TRUE(percentile_supported(20, 500));
    EXPECT_FALSE(percentile_supported(19, 500));
    EXPECT_FALSE(percentile_supported(0, 500));
}

TEST(PercentileRule, HighestSupported) {
    EXPECT_EQ(highest_supported_percentile(0), 0u);
    EXPECT_EQ(highest_supported_percentile(19), 0u);
    EXPECT_EQ(highest_supported_percentile(20), 500u);
    EXPECT_EQ(highest_supported_percentile(100), 900u);
    EXPECT_EQ(highest_supported_percentile(999), 900u);
    EXPECT_EQ(highest_supported_percentile(1000), 990u);
    EXPECT_EQ(highest_supported_percentile(10'000), 999u);
}

TEST(Percentile, InterpolatesLikeTheHarnessHistogram) {
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i) v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile_sorted(v, 50), 500.5);
    EXPECT_NEAR(percentile_sorted(v, 99), 990.01, 1e-9);
    EXPECT_DOUBLE_EQ(percentile_sorted(v, 100), 1000);
    EXPECT_DOUBLE_EQ(percentile_sorted({7}, 99), 7);
    EXPECT_DOUBLE_EQ(percentile_sorted({}, 50), 0);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Outage, FindsFirstFreshCommitAfterFault) {
    // Requests due every 10 ns committing 5 ns later; the service stops at
    // t=100 and the request due at 100 waits until 180. Requests due at
    // 110..170 queue behind it and commit at 181..187.
    std::vector<Completion> c;
    for (std::int64_t t = 0; t < 100; t += 10) c.push_back({t, t + 5});
    c.push_back({100, 180});
    for (std::int64_t t = 110; t < 180; t += 10) c.push_back({t, 181 + (t - 110) / 10});
    for (std::int64_t t = 180; t < 300; t += 10) c.push_back({t, t + 5});
    FreshCommitIndex idx(c);
    EXPECT_EQ(idx.after(100), 80);  // the fault instant: 100 -> 180
    EXPECT_EQ(idx.after(95), 85);   // due 100 is the first due at/after 95
    EXPECT_EQ(idx.after(50), 5);    // before the fault: one service time
    EXPECT_EQ(idx.after(290), 5);
    EXPECT_FALSE(idx.after(291).has_value());  // nothing due after the last request
}

TEST(Outage, LateDueRequestCanCommitFirst) {
    // The first commit of a request due after t need not be the earliest
    // due one: a later request may overtake it.
    FreshCommitIndex idx({{10, 500}, {20, 60}, {30, 70}});
    EXPECT_EQ(idx.after(10), 50);
    EXPECT_EQ(idx.after(25), 45);
}

TEST(Outage, MeanOverInstants) {
    FreshCommitIndex idx({{0, 10}, {100, 130}});
    auto m = idx.mean_after({0, 100});
    ASSERT_TRUE(m.has_value());
    EXPECT_DOUBLE_EQ(*m, 20.0);
    EXPECT_FALSE(idx.mean_after({0, 101}).has_value());
    EXPECT_FALSE(idx.mean_after({}).has_value());
    EXPECT_EQ(even_instants(0, 100, 4), (std::vector<std::int64_t>{0, 25, 50, 75}));
}

TEST(Accounting, FailFracCountsAbortsWrongAndUncommitted) {
    OpTally t;
    t.attempted = 100;
    t.committed = 70;
    t.aborted = 20;
    t.wrong = 4;
    t.uncommitted = 6;
    EXPECT_TRUE(t.consistent());
    EXPECT_EQ(t.errors(), 10u);
    EXPECT_DOUBLE_EQ(t.fail_frac(), 0.30);
    EXPECT_DOUBLE_EQ(t.ok_frac(), 0.70);
    t.committed = 71;
    EXPECT_FALSE(t.consistent());
    EXPECT_DOUBLE_EQ(OpTally{}.fail_frac(), 0.0);
}

TEST(Accounting, TalliesAdd) {
    OpTally a{10, 8, 1, 0, 1};
    OpTally b{5, 5, 0, 0, 0};
    a += b;
    EXPECT_EQ(a.attempted, 15u);
    EXPECT_EQ(a.committed, 13u);
    EXPECT_TRUE(a.consistent());
    EXPECT_EQ(a.errors(), 1u);
}

TEST(Normalisation, PerOpPerKopAndRatio) {
    EXPECT_DOUBLE_EQ(per_op(900, 100), 9.0);
    EXPECT_DOUBLE_EQ(per_kop(3, 2000), 1.5);
    EXPECT_DOUBLE_EQ(per_op(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(49, 50), 0.98);
    EXPECT_DOUBLE_EQ(ratio(0, 0), 0.0);
}

}  // namespace
}  // namespace perfbench
