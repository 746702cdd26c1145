/**
 * @file
 * Parametric small floating-point codec covering fp16, e4m3 and e5m2.
 *
 * Section 3.2 of the paper quantizes the state / KV cache to 8-bit floats
 * (e4m3 = 4 exponent + 3 mantissa bits, e5m2 = 5 + 2) and observes severe
 * swamping for SU-LLMs; we reproduce those formats bit-faithfully,
 * including subnormals and saturation, with both rounding modes.
 */

#ifndef PIMBA_QUANT_MINIFLOAT_H
#define PIMBA_QUANT_MINIFLOAT_H

#include <cstdint>

#include "quant/rounding.h"

namespace pimba {

/** Static description of a sign+exponent+mantissa format. */
struct MinifloatSpec
{
    int expBits;       ///< exponent field width
    int manBits;       ///< mantissa (fraction) field width
    int bias;          ///< exponent bias
    bool ieeeReserved; ///< all-ones exponent reserved for inf/NaN (IEEE
                       ///< style, fp16/e5m2) vs only the single top code
                       ///< reserved (OCP e4m3 style)

    /** Largest finite magnitude; out-of-range inputs saturate to this. */
    double maxValue() const;

    /** Smallest positive subnormal magnitude (one ulp at the bottom). */
    double minSubnormal() const;

    /** Highest usable exponent field value. */
    int maxExpField() const;

    /** Highest usable mantissa field value in the top binade. */
    int maxManFieldAtTop() const;
};

/** fp16 / binary16 (5 exponent, 10 mantissa, bias 15, max 65504). */
MinifloatSpec fp16Spec();
/** OCP FP8 e4m3 (bias 7, max 448, saturating). */
MinifloatSpec e4m3Spec();
/** OCP FP8 e5m2 (bias 15, max 57344, saturating). */
MinifloatSpec e5m2Spec();

/**
 * Quantize @p v to a representable value of @p spec and return the decoded
 * result. Values beyond the max magnitude saturate.
 */
double minifloatQuantize(double v, const MinifloatSpec &spec, Rounding mode,
                         Lfsr16 &lfsr);

/**
 * Encode @p v into the raw bit pattern (sign | exponent | mantissa).
 * Exposed for bit-level tests.
 *
 * @param[out] decoded The value the returned bits represent (optional).
 * @return Raw bits, right-aligned.
 */
uint32_t minifloatEncode(double v, const MinifloatSpec &spec, Rounding mode,
                         Lfsr16 &lfsr, double *decoded);

/** Decode a raw bit pattern produced by minifloatEncode. */
double minifloatDecode(uint32_t bits, const MinifloatSpec &spec);

} // namespace pimba

#endif // PIMBA_QUANT_MINIFLOAT_H
