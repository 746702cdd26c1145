#include "quant/minifloat.h"

#include <cmath>

#include "core/logging.h"

namespace pimba {

int
MinifloatSpec::maxExpField() const
{
    return (1 << expBits) - (ieeeReserved ? 2 : 1);
}

int
MinifloatSpec::maxManFieldAtTop() const
{
    // OCP e4m3 reserves only the all-ones mantissa at the all-ones
    // exponent (the single NaN code); IEEE-style formats use the full
    // mantissa range in their top usable binade.
    return (1 << manBits) - (ieeeReserved ? 1 : 2);
}

double
MinifloatSpec::maxValue() const
{
    int emax = maxExpField() - bias;
    double frac = 1.0 + std::ldexp(static_cast<double>(maxManFieldAtTop()),
                                   -manBits);
    return frac * std::ldexp(1.0, emax);
}

double
MinifloatSpec::minSubnormal() const
{
    return std::ldexp(1.0, 1 - bias - manBits);
}

MinifloatSpec
fp16Spec()
{
    return {5, 10, 15, true};
}

MinifloatSpec
e4m3Spec()
{
    return {4, 3, 7, false};
}

MinifloatSpec
e5m2Spec()
{
    return {5, 2, 15, true};
}

uint32_t
minifloatEncode(double v, const MinifloatSpec &spec, Rounding mode,
                Lfsr16 &lfsr, double *decoded)
{
    const int ebits = spec.expBits;
    const int mbits = spec.manBits;
    const int bias = spec.bias;
    const uint32_t sign = (std::signbit(v) ? 1u : 0u);
    double mag = std::fabs(v);

    uint32_t exp_field = 0;
    uint32_t man_field = 0;

    auto saturate = [&]() {
        exp_field = static_cast<uint32_t>(spec.maxExpField());
        man_field = static_cast<uint32_t>(spec.maxManFieldAtTop());
    };

    if (mag == 0.0 || std::isnan(v)) {
        // NaN inputs should not occur in the state pipeline; encode zero.
        exp_field = 0;
        man_field = 0;
    } else if (mag > spec.maxValue()) {
        saturate();
    } else {
        int e2 = 0;
        std::frexp(mag, &e2);         // mag = f * 2^e2, f in [0.5, 1)
        int unbiased = e2 - 1;        // exponent with 1.f normalization
        int efield = unbiased + bias;

        if (efield <= 0) {
            // Subnormal range: grid spacing = minSubnormal.
            double ulp = spec.minSubnormal();
            double q = roundToGrid(mag / ulp, mode, lfsr);
            if (q >= std::ldexp(1.0, mbits)) {
                // Rounded up into the normal range.
                exp_field = 1;
                man_field = 0;
            } else {
                exp_field = 0;
                man_field = static_cast<uint32_t>(q);
            }
        } else {
            // Normal: mantissa grid within this binade.
            double scaled = std::ldexp(mag, -unbiased) - 1.0; // [0, 1)
            double q = roundToGrid(std::ldexp(scaled, mbits), mode, lfsr);
            if (q >= std::ldexp(1.0, mbits)) {
                // Carried into the next binade.
                efield += 1;
                q = 0;
            }
            if (efield > spec.maxExpField() ||
                (efield == spec.maxExpField() &&
                 q > spec.maxManFieldAtTop())) {
                saturate();
            } else {
                exp_field = static_cast<uint32_t>(efield);
                man_field = static_cast<uint32_t>(q);
            }
        }
    }

    uint32_t bits = (sign << (ebits + mbits)) | (exp_field << mbits) |
                    man_field;
    if (decoded)
        *decoded = minifloatDecode(bits, spec);
    return bits;
}

double
minifloatDecode(uint32_t bits, const MinifloatSpec &spec)
{
    const int ebits = spec.expBits;
    const int mbits = spec.manBits;
    const int bias = spec.bias;

    uint32_t sign = (bits >> (ebits + mbits)) & 1u;
    uint32_t exp_field = (bits >> mbits) & ((1u << ebits) - 1u);
    uint32_t man_field = bits & ((1u << mbits) - 1u);

    double mag;
    if (exp_field == 0) {
        mag = std::ldexp(static_cast<double>(man_field), 1 - bias - mbits);
    } else {
        double frac = 1.0 + std::ldexp(static_cast<double>(man_field),
                                       -mbits);
        mag = std::ldexp(frac, static_cast<int>(exp_field) - bias);
    }
    return sign ? -mag : mag;
}

double
minifloatQuantize(double v, const MinifloatSpec &spec, Rounding mode,
                  Lfsr16 &lfsr)
{
    double decoded = 0.0;
    minifloatEncode(v, spec, mode, lfsr, &decoded);
    return decoded;
}

} // namespace pimba
