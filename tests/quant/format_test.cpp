/**
 * @file
 * Tests of the unified quantization front end (format table, span
 * projection properties shared by all codecs).
 */

#include <gtest/gtest.h>

#include <vector>

#include "quant/format.h"

namespace pimba {
namespace {

TEST(Format, BitsPerValue)
{
    EXPECT_DOUBLE_EQ(bitsPerValue(NumberFormat::FP64), 64.0);
    EXPECT_DOUBLE_EQ(bitsPerValue(NumberFormat::FP16), 16.0);
    EXPECT_DOUBLE_EQ(bitsPerValue(NumberFormat::E4M3), 8.0);
    EXPECT_DOUBLE_EQ(bitsPerValue(NumberFormat::E5M2), 8.0);
    // int8 carries an fp16 scale per 32 elements.
    EXPECT_DOUBLE_EQ(bitsPerValue(NumberFormat::INT8), 8.5);
    // MX8 averages exactly 8 bits per value (Section 3.2).
    EXPECT_DOUBLE_EQ(bitsPerValue(NumberFormat::MX8), 8.0);
}

TEST(Format, Names)
{
    EXPECT_EQ(formatName(NumberFormat::MX8), "mx8");
    QuantSpec sr{NumberFormat::E5M2, Rounding::Stochastic};
    EXPECT_EQ(sr.name(), "e5m2SR");
    QuantSpec rn{NumberFormat::INT8, Rounding::Nearest};
    EXPECT_EQ(rn.name(), "int8");
    QuantSpec fp64{NumberFormat::FP64, Rounding::Stochastic};
    EXPECT_EQ(fp64.name(), "fp64"); // no SR suffix on the identity
}

TEST(Format, Figure4SweepOrder)
{
    auto specs = figure4Specs();
    ASSERT_EQ(specs.size(), 9u);
    EXPECT_EQ(specs.front().name(), "fp16");
    EXPECT_EQ(specs.back().name(), "mx8SR");
}

class SpanProjection : public ::testing::TestWithParam<QuantSpec>
{
};

TEST_P(SpanProjection, Idempotent)
{
    QuantSpec spec = GetParam();
    Lfsr16 lfsr(0x11);
    Lfsr32 rng(5);
    std::vector<double> v(100);
    for (auto &x : v)
        x = rng.nextGaussian() * 2.0;
    quantizeSpan(v.data(), v.size(), spec, lfsr);
    std::vector<double> again = v;
    quantizeSpan(again.data(), again.size(), spec, lfsr);
    for (size_t i = 0; i < v.size(); ++i)
        ASSERT_DOUBLE_EQ(v[i], again[i]) << spec.name() << " idx " << i;
}

TEST_P(SpanProjection, PreservesZero)
{
    QuantSpec spec = GetParam();
    Lfsr16 lfsr(0x22);
    std::vector<double> v(48, 0.0);
    quantizeSpan(v.data(), v.size(), spec, lfsr);
    for (double x : v)
        ASSERT_EQ(x, 0.0);
}

TEST_P(SpanProjection, BoundedRelativeError)
{
    QuantSpec spec = GetParam();
    Lfsr16 lfsr(0x33);
    Lfsr32 rng(7);
    std::vector<double> v(64);
    for (auto &x : v)
        x = 1.0 + rng.nextUnit(); // uniform magnitudes in [1, 2)
    std::vector<double> q = v;
    quantizeSpan(q.data(), q.size(), spec, lfsr);
    for (size_t i = 0; i < v.size(); ++i) {
        // All 8-bit formats resolve uniform [1,2) values to within ~6%;
        // fp16 is far tighter.
        ASSERT_NEAR(q[i], v[i], 0.13) << spec.name() << " idx " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, SpanProjection,
    ::testing::Values(QuantSpec{NumberFormat::FP16, Rounding::Nearest},
                      QuantSpec{NumberFormat::INT8, Rounding::Nearest},
                      QuantSpec{NumberFormat::E4M3, Rounding::Nearest},
                      QuantSpec{NumberFormat::E5M2, Rounding::Nearest},
                      QuantSpec{NumberFormat::MX8, Rounding::Nearest},
                      QuantSpec{NumberFormat::MX8, Rounding::Stochastic}),
    [](const auto &info) { return info.param.name(); });

TEST(Format, Fp64IsIdentity)
{
    Lfsr16 lfsr(1);
    std::vector<double> v = {1.23456789, -9.87654321e-7, 3.14159e12};
    std::vector<double> q = v;
    quantizeSpan(q.data(), q.size(), QuantSpec{}, lfsr);
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_DOUBLE_EQ(q[i], v[i]);
}

} // namespace
} // namespace pimba
