/**
 * @file
 * Bit-level tests of the fp16 / e4m3 / e5m2 codecs, including rounding
 * behaviour and the stochastic-rounding statistics the paper's Section
 * 3.2 relies on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "quant/minifloat.h"

namespace pimba {
namespace {

TEST(MinifloatSpec, Fp16Constants)
{
    MinifloatSpec s = fp16Spec();
    EXPECT_DOUBLE_EQ(s.maxValue(), 65504.0);
    EXPECT_DOUBLE_EQ(s.minSubnormal(), std::ldexp(1.0, -24));
}

TEST(MinifloatSpec, E4m3Constants)
{
    MinifloatSpec s = e4m3Spec();
    EXPECT_DOUBLE_EQ(s.maxValue(), 448.0);
    EXPECT_DOUBLE_EQ(s.minSubnormal(), std::ldexp(1.0, -9));
}

TEST(MinifloatSpec, E5m2Constants)
{
    MinifloatSpec s = e5m2Spec();
    EXPECT_DOUBLE_EQ(s.maxValue(), 57344.0);
    EXPECT_DOUBLE_EQ(s.minSubnormal(), std::ldexp(1.0, -16));
}

class MinifloatFormats
    : public ::testing::TestWithParam<MinifloatSpec>
{
  protected:
    Lfsr16 lfsr{0x5555};
};

TEST_P(MinifloatFormats, ExactValuesRoundTrip)
{
    MinifloatSpec spec = GetParam();
    // Powers of two and simple fractions within range are exact.
    for (double v : {1.0, 2.0, 0.5, 0.25, -1.0, -4.0, 1.5, -3.0}) {
        EXPECT_DOUBLE_EQ(
            minifloatQuantize(v, spec, Rounding::Nearest, lfsr), v)
            << "value " << v;
    }
}

TEST_P(MinifloatFormats, ZeroIsExact)
{
    MinifloatSpec spec = GetParam();
    EXPECT_EQ(minifloatQuantize(0.0, spec, Rounding::Nearest, lfsr), 0.0);
}

TEST_P(MinifloatFormats, SaturatesAtMax)
{
    MinifloatSpec spec = GetParam();
    double big = spec.maxValue() * 8.0;
    EXPECT_DOUBLE_EQ(
        minifloatQuantize(big, spec, Rounding::Nearest, lfsr),
        spec.maxValue());
    EXPECT_DOUBLE_EQ(
        minifloatQuantize(-big, spec, Rounding::Nearest, lfsr),
        -spec.maxValue());
}

TEST_P(MinifloatFormats, IdempotentProjection)
{
    MinifloatSpec spec = GetParam();
    Lfsr32 rng(7);
    for (int i = 0; i < 500; ++i) {
        double v = (rng.nextUnit() - 0.5) * 64.0;
        double q = minifloatQuantize(v, spec, Rounding::Nearest, lfsr);
        double q2 = minifloatQuantize(q, spec, Rounding::Nearest, lfsr);
        ASSERT_DOUBLE_EQ(q, q2) << "value " << v;
    }
}

TEST_P(MinifloatFormats, NearestNeverWorseThanUlp)
{
    MinifloatSpec spec = GetParam();
    Lfsr32 rng(11);
    for (int i = 0; i < 500; ++i) {
        double v = (rng.nextUnit() - 0.5) * 8.0;
        double q = minifloatQuantize(v, spec, Rounding::Nearest, lfsr);
        // Relative error bounded by half the mantissa grid (normals,
        // from 2^(1 - bias) up).
        if (std::fabs(v) >= std::ldexp(1.0, 1 - spec.bias)) {
            double rel = std::fabs(q - v) / std::fabs(v);
            ASSERT_LE(rel, std::ldexp(1.0, -spec.manBits) / 2.0 + 1e-12)
                << "value " << v;
        }
    }
}

TEST_P(MinifloatFormats, SubnormalsRepresentable)
{
    MinifloatSpec spec = GetParam();
    double sub = spec.minSubnormal();
    EXPECT_DOUBLE_EQ(
        minifloatQuantize(sub, spec, Rounding::Nearest, lfsr), sub);
    EXPECT_DOUBLE_EQ(
        minifloatQuantize(3.0 * sub, spec, Rounding::Nearest, lfsr),
        3.0 * sub);
}

TEST_P(MinifloatFormats, TinyValuesFlushOrRound)
{
    MinifloatSpec spec = GetParam();
    double tiny = spec.minSubnormal() * 0.25;
    double q = minifloatQuantize(tiny, spec, Rounding::Nearest, lfsr);
    EXPECT_EQ(q, 0.0);
}

TEST_P(MinifloatFormats, DecodeEncodeBitsConsistent)
{
    MinifloatSpec spec = GetParam();
    Lfsr32 rng(13);
    for (int i = 0; i < 200; ++i) {
        double v = (rng.nextUnit() - 0.5) * 16.0;
        double decoded = 0.0;
        uint32_t bits = minifloatEncode(v, spec, Rounding::Nearest, lfsr,
                                        &decoded);
        EXPECT_DOUBLE_EQ(minifloatDecode(bits, spec), decoded);
    }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, MinifloatFormats,
                         ::testing::Values(fp16Spec(), e4m3Spec(),
                                           e5m2Spec()),
                         [](const auto &info) {
                             const MinifloatSpec &s = info.param;
                             return "e" + std::to_string(s.expBits) + "m" +
                                    std::to_string(s.manBits);
                         });

TEST(MinifloatRounding, RoundToNearestEven)
{
    Lfsr16 lfsr(1);
    MinifloatSpec spec = e4m3Spec();
    // Halfway between 1.0 and 1.125 (3 mantissa bits): 1.0625 -> 1.0
    // (even mantissa); halfway between 1.125 and 1.25: 1.1875 -> 1.25.
    EXPECT_DOUBLE_EQ(
        minifloatQuantize(1.0625, spec, Rounding::Nearest, lfsr), 1.0);
    EXPECT_DOUBLE_EQ(
        minifloatQuantize(1.1875, spec, Rounding::Nearest, lfsr), 1.25);
}

TEST(MinifloatRounding, StochasticIsUnbiased)
{
    MinifloatSpec spec = e5m2Spec();
    Lfsr16 lfsr(0x9999);
    // 1.1 sits between 1.0 and 1.25; SR must average to ~1.1.
    double sum = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        sum += minifloatQuantize(1.1, spec, Rounding::Stochastic, lfsr);
    EXPECT_NEAR(sum / n, 1.1, 0.01);
}

TEST(MinifloatRounding, StochasticOnGridIsExact)
{
    MinifloatSpec spec = e5m2Spec();
    Lfsr16 lfsr(0x2222);
    for (int i = 0; i < 100; ++i)
        ASSERT_DOUBLE_EQ(
            minifloatQuantize(1.25, spec, Rounding::Stochastic, lfsr),
            1.25);
}

TEST(MinifloatRounding, NanEncodesZero)
{
    Lfsr16 lfsr(3);
    EXPECT_EQ(minifloatQuantize(std::nan(""), e4m3Spec(),
                                Rounding::Nearest, lfsr), 0.0);
}

TEST(MinifloatRounding, CarryIntoNextBinade)
{
    Lfsr16 lfsr(5);
    MinifloatSpec spec = e4m3Spec();
    // 1.96875 rounds up past the top of the [1,2) binade to 2.0.
    EXPECT_DOUBLE_EQ(
        minifloatQuantize(1.97, spec, Rounding::Nearest, lfsr), 2.0);
}

} // namespace
} // namespace pimba
