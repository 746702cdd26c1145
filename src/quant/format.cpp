#include "quant/format.h"

#include "core/logging.h"
#include "quant/int8_group.h"
#include "quant/minifloat.h"
#include "quant/mx8.h"

namespace pimba {

std::string
formatName(NumberFormat fmt)
{
    switch (fmt) {
      case NumberFormat::FP64: return "fp64";
      case NumberFormat::FP16: return "fp16";
      case NumberFormat::INT8: return "int8";
      case NumberFormat::E4M3: return "e4m3";
      case NumberFormat::E5M2: return "e5m2";
      case NumberFormat::MX8:  return "mx8";
    }
    PIMBA_PANIC("unknown format");
}

std::string
QuantSpec::name() const
{
    std::string base = formatName(fmt);
    if (rnd == Rounding::Stochastic && fmt != NumberFormat::FP64)
        base += "SR";
    return base;
}

double
bitsPerValue(NumberFormat fmt)
{
    switch (fmt) {
      case NumberFormat::FP64:
        return 64.0;
      case NumberFormat::FP16:
        return 16.0;
      case NumberFormat::INT8:
        // 8-bit codes plus one fp16 scale per 32 elements.
        return 8.0 + 16.0 / kInt8GroupSize;
      case NumberFormat::E4M3:
      case NumberFormat::E5M2:
        return 8.0;
      case NumberFormat::MX8:
        return kMx8BitsPerValue;
    }
    PIMBA_PANIC("unknown format");
}

void
quantizeSpan(double *v, size_t n, const QuantSpec &spec, Lfsr16 &lfsr)
{
    switch (spec.fmt) {
      case NumberFormat::FP64:
        return;
      case NumberFormat::FP16:
        for (size_t i = 0; i < n; ++i)
            v[i] = minifloatQuantize(v[i], fp16Spec(), spec.rnd, lfsr);
        return;
      case NumberFormat::E4M3:
        for (size_t i = 0; i < n; ++i)
            v[i] = minifloatQuantize(v[i], e4m3Spec(), spec.rnd, lfsr);
        return;
      case NumberFormat::E5M2:
        for (size_t i = 0; i < n; ++i)
            v[i] = minifloatQuantize(v[i], e5m2Spec(), spec.rnd, lfsr);
        return;
      case NumberFormat::INT8:
        int8QuantizeSpan(v, n, spec.rnd, lfsr);
        return;
      case NumberFormat::MX8:
        mxQuantizeSpan(v, n, spec.rnd, lfsr);
        return;
    }
    PIMBA_PANIC("unknown format");
}

std::vector<QuantSpec>
figure4Specs()
{
    using NF = NumberFormat;
    return {
        {NF::FP16, Rounding::Nearest},
        {NF::INT8, Rounding::Nearest},
        {NF::INT8, Rounding::Stochastic},
        {NF::E4M3, Rounding::Nearest},
        {NF::E4M3, Rounding::Stochastic},
        {NF::E5M2, Rounding::Nearest},
        {NF::E5M2, Rounding::Stochastic},
        {NF::MX8, Rounding::Nearest},
        {NF::MX8, Rounding::Stochastic},
    };
}

} // namespace pimba
