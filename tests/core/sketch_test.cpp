/**
 * @file
 * Quantile-sketch tests: the relative-error guarantee against the
 * exact percentile() path on pinned seeded populations (uniform,
 * lognormal, point-mass), exact count/min/max/sum bookkeeping, and
 * the empty-sketch and zero-bucket guards. The 1% equivalence budget
 * here is the same one the streaming-metrics mode is held to
 * (docs/observability.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/lfsr.h"
#include "core/sketch.h"
#include "core/stats.h"

namespace pimba {
namespace {

/// Relative gap |a - b| / |b|, with b != 0 expected by the caller.
double
relErr(double a, double b)
{
    return std::abs(a - b) / std::abs(b);
}

std::vector<double>
uniformSamples(size_t n, uint32_t seed)
{
    Lfsr32 rng(seed);
    std::vector<double> v;
    v.reserve(n);
    for (size_t i = 0; i < n; ++i)
        v.push_back(0.5 + 9.5 * rng.nextUnit()); // [0.5, 10)
    return v;
}

std::vector<double>
lognormalSamples(size_t n, uint32_t seed)
{
    Lfsr32 rng(seed);
    std::vector<double> v;
    v.reserve(n);
    // exp(N(0, 1.5)): a heavy right tail, the TTFT-under-overload
    // shape the p99 columns exist for.
    for (size_t i = 0; i < n; ++i)
        v.push_back(std::exp(1.5 * rng.nextGaussian()));
    return v;
}

void
expectQuantilesWithin(const std::vector<double> &samples, double budget)
{
    QuantileSketch sk;
    for (double x : samples)
        sk.add(x);
    for (double q : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
        double exact = percentile(samples, q);
        ASSERT_GT(exact, 0.0);
        EXPECT_LE(relErr(sk.quantile(q), exact), budget)
            << "q=" << q << " sketch=" << sk.quantile(q)
            << " exact=" << exact;
    }
}

TEST(QuantileSketch, UniformPopulationWithinOnePercent)
{
    expectQuantilesWithin(uniformSamples(20000, 0x5EEDBA5Eu), 0.01);
}

TEST(QuantileSketch, LognormalPopulationWithinOnePercent)
{
    expectQuantilesWithin(lognormalSamples(20000, 0x0BADCAFEu), 0.01);
}

TEST(QuantileSketch, PointMassIsRecoveredAtEveryQuantile)
{
    QuantileSketch sk;
    for (int i = 0; i < 1000; ++i)
        sk.add(0.0375);
    for (double q : {0.0, 50.0, 99.0, 100.0})
        EXPECT_LE(relErr(sk.quantile(q), 0.0375),
                  sk.relativeAccuracy())
            << "q=" << q;
    EXPECT_DOUBLE_EQ(sk.min(), 0.0375);
    EXPECT_DOUBLE_EQ(sk.max(), 0.0375);
}

TEST(QuantileSketch, CountMinMaxSumAreExact)
{
    std::vector<double> samples = uniformSamples(777, 0x1234ABCDu);
    QuantileSketch sk;
    double lo = samples[0], hi = samples[0], total = 0.0;
    for (double x : samples) {
        sk.add(x);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        total += x;
    }
    EXPECT_EQ(sk.count(), samples.size());
    EXPECT_DOUBLE_EQ(sk.min(), lo);
    EXPECT_DOUBLE_EQ(sk.max(), hi);
    EXPECT_DOUBLE_EQ(sk.sum(), total);
    EXPECT_DOUBLE_EQ(sk.mean(), total / 777.0);
}

TEST(QuantileSketch, EmptySketchAnswersZeroEverywhere)
{
    QuantileSketch sk;
    EXPECT_TRUE(sk.empty());
    EXPECT_EQ(sk.count(), 0u);
    EXPECT_DOUBLE_EQ(sk.quantile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(sk.min(), 0.0);
    EXPECT_DOUBLE_EQ(sk.max(), 0.0);
    EXPECT_DOUBLE_EQ(sk.mean(), 0.0);
}

TEST(QuantileSketch, NonPositiveSamplesLandInTheZeroBucket)
{
    // Per-request preemption counts are frequently zero; the sketch
    // must not feed them to a logarithm.
    QuantileSketch sk;
    for (int i = 0; i < 90; ++i)
        sk.add(0.0);
    for (int i = 0; i < 10; ++i)
        sk.add(2.0);
    EXPECT_EQ(sk.count(), 100u);
    EXPECT_DOUBLE_EQ(sk.quantile(50.0), 0.0);
    EXPECT_LE(relErr(sk.quantile(99.0), 2.0), sk.relativeAccuracy());
    EXPECT_DOUBLE_EQ(sk.min(), 0.0);
}

} // namespace
} // namespace pimba
