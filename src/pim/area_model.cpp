#include "pim/area_model.h"

#include "core/logging.h"

namespace pimba {

namespace {

/**
 * Per-unit silicon area (mm² at 10 nm, DRAM process), anchored to the
 * paper's published synthesis endpoints:
 *
 *  - Fig. 5(b): 16 per-bank pipelined fp16 units = 32.4 % overhead and
 *    16 per-bank time-multiplexed fp16 units = 17.8 % (minus the shared
 *    0.039 mm² buffer) give 11.5e-3 and 5.2e-3 mm² per unit.
 *  - Table 3: 8 Pimba SPUs = 0.053 mm² -> 6.62e-3 mm² each (the
 *    pipelined MX8 unit plus ~16 % for the two-bank access-interleaving
 *    muxing); 8 optimized HBM-PIM units = 0.042 mm² -> 5.25e-3 each.
 *  - E5M2, E4M3 and INT8 are assumed values between the MX8 and fp16
 *    anchors, not derived from any gate count: the paper gives no
 *    figure for them, only Fig. 6's ordering (fp8 adds per-element
 *    exponent alignment, int8 adds dequantize/requantize multipliers
 *    and the max-search tree, Section 4.2).
 */
double
pipelinedUnitAreaMm2(NumberFormat fmt)
{
    switch (fmt) {
      case NumberFormat::MX8:  return 5.72e-3;
      case NumberFormat::E5M2: return 6.80e-3;
      case NumberFormat::E4M3: return 7.65e-3;
      case NumberFormat::INT8: return 9.37e-3;
      case NumberFormat::FP16: return 11.5e-3;
      case NumberFormat::FP64: break;
    }
    PIMBA_PANIC("no hardware unit for format");
}

/** Extra area for the two-bank interleaving muxes and control. */
constexpr double kInterleaveFactor = 1.157;

/** LFSR + per-lane mantissa adders for stochastic rounding. */
constexpr double kStochasticExtraMm2 = 0.17e-3;

double
timeMuxUnitAreaMm2(NumberFormat fmt)
{
    // HBM-PIM's basic fp16 ALU; other formats keep the pipelined
    // table's ratios.
    if (fmt == NumberFormat::FP16)
        return 5.25e-3;
    return 0.46 * pipelinedUnitAreaMm2(fmt);
}

} // namespace

PimArea
PimAreaModel::designArea(PimStyle style, NumberFormat fmt, bool stochastic,
                         int units_per_pc)
{
    PimArea area;
    double unit = 0.0;
    switch (style) {
      case PimStyle::PimbaInterleaved:
        unit = pipelinedUnitAreaMm2(fmt) * kInterleaveFactor;
        break;
      case PimStyle::PerBankPipelined:
        unit = pipelinedUnitAreaMm2(fmt);
        break;
      case PimStyle::TimeMultiplexed:
      case PimStyle::TimeMultiplexedPerBank:
        unit = timeMuxUnitAreaMm2(fmt);
        break;
    }
    if (stochastic)
        unit += kStochasticExtraMm2;
    area.compute = unit * units_per_pc;
    // Shared SRAM operand/result buffer, identical across designs
    // (Table 3 reports 0.039 mm² for both Pimba and HBM-PIM).
    area.buffer = 0.039;
    return area;
}

PimArea
PimAreaModel::designArea(const PimDesign &design, int banks_per_pc,
                         bool stochastic)
{
    int units = (design.style == PimStyle::PerBankPipelined ||
                 design.style == PimStyle::TimeMultiplexedPerBank)
                    ? banks_per_pc
                    : banks_per_pc / 2;
    return designArea(design.style, design.dataFormat, stochastic, units);
}

double
PimAreaModel::overheadPercent(const PimArea &area)
{
    return 100.0 * area.total() / kPimAreaBudgetMm2;
}

double
PimAreaModel::computePowerMw(double compute_area_mm2, double freq_hz)
{
    // Dynamic power proportional to switched capacitance (~area) and
    // frequency; constant calibrated to Table 3 (8.29 mW for Pimba's
    // 0.053 mm² at 378 MHz).
    constexpr double kMwPerMm2Hz = 8.2908 / (0.053 * 378e6);
    return compute_area_mm2 * freq_hz * kMwPerMm2Hz;
}

} // namespace pimba
