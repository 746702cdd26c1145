/**
 * @file
 * Unit tests for accumulators, breakdowns and stat sets.
 */

#include <gtest/gtest.h>

#include "core/stats.h"
#include "core/units.h"

namespace pimba {
namespace {

TEST(Accumulator, Empty)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.sum(), 0.0);
}

TEST(Accumulator, SingleSample)
{
    Accumulator acc;
    acc.add(3.5);
    EXPECT_EQ(acc.count(), 1u);
    EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
    EXPECT_DOUBLE_EQ(acc.min(), 3.5);
    EXPECT_DOUBLE_EQ(acc.max(), 3.5);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, KnownMoments)
{
    Accumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Breakdown, AccumulatesByKey)
{
    Breakdown b;
    b.add(BreakdownKey::GEMM, 1.0);
    b.add(BreakdownKey::Others, 2.0);
    b.add(BreakdownKey::GEMM, 3.0);
    EXPECT_DOUBLE_EQ(b.get(BreakdownKey::GEMM), 4.0);
    EXPECT_DOUBLE_EQ(b.get(BreakdownKey::Others), 2.0);
    EXPECT_DOUBLE_EQ(b.get(BreakdownKey::Attention), 0.0);
    EXPECT_DOUBLE_EQ(b.total(), 6.0);
}

TEST(Breakdown, LooksUpByLegendName)
{
    Breakdown b;
    b.add(BreakdownKey::StateUpdateIo, 1.5);
    EXPECT_DOUBLE_EQ(b.get("State update (I/O)"), 1.5);
    EXPECT_DOUBLE_EQ(b.get("StateUpdate"), 0.0);   // absent
    EXPECT_DOUBLE_EQ(b.get("not a legend"), 0.0); // unknown name
    for (size_t i = 0; i < kBreakdownKeys; ++i) {
        auto key = static_cast<BreakdownKey>(i);
        Breakdown one;
        one.add(key, 2.0);
        EXPECT_DOUBLE_EQ(one.get(breakdownKeyName(key)), 2.0)
            << breakdownKeyName(key);
    }
}

TEST(Breakdown, PreservesInsertionOrder)
{
    Breakdown b;
    b.add(BreakdownKey::StateUpdate, 1.0);
    b.add(BreakdownKey::Attention, 1.0);
    b.add(BreakdownKey::StateUpdate, 1.0);
    ASSERT_EQ(b.keys().size(), 2u);
    EXPECT_EQ(b.keys()[0], BreakdownKey::StateUpdate);
    EXPECT_EQ(b.keys()[1], BreakdownKey::Attention);
}

TEST(Breakdown, Fraction)
{
    Breakdown b;
    b.add(BreakdownKey::Attention, 1.0);
    b.add(BreakdownKey::GEMM, 3.0);
    EXPECT_DOUBLE_EQ(b.fraction(BreakdownKey::Attention), 0.25);
    EXPECT_DOUBLE_EQ(b.fraction("GEMM"), 0.75);
    Breakdown empty;
    EXPECT_DOUBLE_EQ(empty.fraction(BreakdownKey::Attention), 0.0);
}

TEST(Breakdown, ScaleAndMerge)
{
    Breakdown a;
    a.add(BreakdownKey::GEMM, 2.0);
    a.scale(0.5);
    EXPECT_DOUBLE_EQ(a.get(BreakdownKey::GEMM), 1.0);

    Breakdown b;
    b.add(BreakdownKey::GEMM, 1.0);
    b.add(BreakdownKey::Others, 5.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get(BreakdownKey::GEMM), 2.0);
    EXPECT_DOUBLE_EQ(a.get(BreakdownKey::Others), 5.0);
    ASSERT_EQ(a.keys().size(), 2u);
    EXPECT_EQ(a.keys()[1], BreakdownKey::Others);
}

TEST(Breakdown, TotalSumsInNameOrderNotInsertionOrder)
{
    // total() sums the categories in byte-wise name order, whatever
    // order they were added in; every golden depends on that rounding.
    // Insertion order here would give (0.1 + 0.2) + 0.3, one ulp above
    // 0.6.
    Breakdown b;
    b.add(BreakdownKey::StateUpdate, 0.1);
    b.add(BreakdownKey::GEMM, 0.2);
    b.add(BreakdownKey::Attention, 0.3);
    ASSERT_NE((0.1 + 0.2) + 0.3, (0.3 + 0.2) + 0.1);
    EXPECT_EQ(b.total(), (0.3 + 0.2) + 0.1);

    // All eleven legend names, added in the order the step simulator
    // first meets them, with values that round differently in that
    // order than in name order. The pinned total is the name-order sum,
    // as the std::map<std::string, double> store this class once used
    // computed it.
    Breakdown all;
    double insertion_sum = 0.0;
    for (size_t i = 0; i < kBreakdownKeys; ++i) {
        all.add(static_cast<BreakdownKey>(i), 1.0 / (i + 7));
        insertion_sum += 1.0 / (i + 7);
    }
    ASSERT_NE(insertion_sum, 0x1.faa6a0d4d52c6p-1);
    EXPECT_EQ(all.total(), 0x1.faa6a0d4d52c6p-1);
}

TEST(StatSet, IncSetGet)
{
    StatSet s;
    s.inc("counter");
    s.inc("counter", 4.0);
    EXPECT_DOUBLE_EQ(s.get("counter"), 5.0);
    s.set("counter", 1.0);
    EXPECT_DOUBLE_EQ(s.get("counter"), 1.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    s.clear();
    EXPECT_DOUBLE_EQ(s.get("counter"), 0.0);
}

TEST(StatSet, DumpContainsEntries)
{
    StatSet s;
    s.set("alpha", 1.5);
    std::string dump = s.dump();
    EXPECT_NE(dump.find("alpha"), std::string::npos);
    EXPECT_NE(dump.find("1.5"), std::string::npos);
}

TEST(Percentile, EmptyAndSingleSample)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({3.0}, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile({3.0}, 99.0), 3.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics)
{
    std::vector<double> v = {4.0, 1.0, 3.0, 2.0}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
}

TEST(Percentile, TailOrderingHolds)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(static_cast<double>(i));
    double p50 = percentile(v, 50.0);
    double p95 = percentile(v, 95.0);
    double p99 = percentile(v, 99.0);
    EXPECT_LT(p50, p95);
    EXPECT_LT(p95, p99);
    EXPECT_NEAR(p99, 990.0, 1.0);
}

} // namespace
} // namespace pimba
