/**
 * @file
 * Unified front end over all codecs in src/quant: the set of candidate
 * state/KV-cache representations the paper sweeps in Figures 4 and 6
 * (fp16, int8, e4m3, e5m2, mx8; each with nearest or stochastic rounding).
 */

#ifndef PIMBA_QUANT_FORMAT_H
#define PIMBA_QUANT_FORMAT_H

#include <string>
#include <vector>

#include "quant/rounding.h"

namespace pimba {

/** Numeric storage formats studied by the paper. */
enum class NumberFormat
{
    FP64, ///< reference (no quantization)
    FP16,
    INT8, ///< 8-bit integer, fp16 scale per 32 elements
    E4M3,
    E5M2,
    MX8,  ///< 16-element shared exponent + paired microexponents
};

/** A format plus the rounding mode used when writing into it. */
struct QuantSpec
{
    NumberFormat fmt = NumberFormat::FP64;
    Rounding rnd = Rounding::Nearest;

    /** "mx8SR"-style short name matching the paper's figure labels. */
    std::string name() const;

    bool operator==(const QuantSpec &other) const = default;
};

/** Storage bits per value, including shared scale/exponent overhead. */
double bitsPerValue(NumberFormat fmt);

/** Short name of a bare format ("mx8", "e4m3", ...). */
std::string formatName(NumberFormat fmt);

/**
 * Quantize-dequantize @p n values in place according to @p spec.
 *
 * This is the per-step projection onto the representable grid that the
 * accuracy harness applies to the state (SU-LLMs) or to freshly appended
 * KV vectors (transformers). FP64 is the identity.
 */
void quantizeSpan(double *v, size_t n, const QuantSpec &spec, Lfsr16 &lfsr);

/** The nine configurations of the paper's Fig. 4 sweep, in figure order. */
std::vector<QuantSpec> figure4Specs();

} // namespace pimba

#endif // PIMBA_QUANT_FORMAT_H
