#include "pim/area_model.h"

#include <cmath>

#include "core/logging.h"

namespace pimba {

namespace {

/** Integer log2 rounded up, min 1 (shift-stage count). */
int
log2Ceil(int v)
{
    int stages = 0;
    int x = 1;
    while (x < v) {
        x <<= 1;
        ++stages;
    }
    return std::max(1, stages);
}

} // namespace

double
PimAreaModel::intMultGates(int n, int m)
{
    // Array multiplier: one AND + one full-adder slice per partial
    // product bit (~7 NAND2 each).
    return 7.0 * n * m;
}

double
PimAreaModel::intAddGates(int n)
{
    // Carry-select adder, ~8 NAND2 per bit.
    return 8.0 * n;
}

double
PimAreaModel::shifterGates(int bits, int positions)
{
    // Barrel shifter: bits x log2(positions) 2:1 muxes (~3 NAND2 each).
    return 3.0 * bits * log2Ceil(positions);
}

double
PimAreaModel::regGates(int bits)
{
    // Flip-flop ~6 NAND2 equivalents.
    return 6.0 * bits;
}

double
PimAreaModel::cmpGates(int n)
{
    return 5.0 * n;
}

double
PimAreaModel::lfsrGates()
{
    return regGates(16) + 4.0 * 3.0; // 16 FFs + XOR taps
}

double
PimAreaModel::fpMultGates(int exp_bits, int man_bits)
{
    int sig = man_bits + 1; // implicit leading one
    return intMultGates(sig, sig) + intAddGates(exp_bits) +
           shifterGates(sig, 2) + 40.0; // normalize + flags
}

double
PimAreaModel::fpAddGates(int exp_bits, int man_bits)
{
    int sig = man_bits + 4; // guard/round/sticky
    return cmpGates(exp_bits) + intAddGates(exp_bits) +
           shifterGates(sig, 1 << std::min(exp_bits, 5)) +
           intAddGates(sig) + shifterGates(sig, sig) + 60.0;
}

double
PimAreaModel::fpMacGates(int exp_bits, int man_bits)
{
    // Fused multiplier + wide accumulate path.
    return fpMultGates(exp_bits, man_bits) +
           fpAddGates(exp_bits, man_bits + 4) + regGates(2 * man_bits + 8);
}

int
PimAreaModel::lanesPerColumn(NumberFormat fmt)
{
    // One 256-bit DRAM column of operands (Fig. 6 caption).
    return static_cast<int>(256.0 / bitsPerValue(fmt));
}

double
PimAreaModel::laneGates(NumberFormat fmt)
{
    switch (fmt) {
      case NumberFormat::MX8: {
        // Fig. 9: sign-magnitude 6-bit integer datapath per element.
        double mul = intMultGates(6, 6) + shifterGates(7, 2);   // decay
        double outer = intMultGates(6, 6) + shifterGates(7, 2); // k*v
        double add = shifterGates(8, 8) + intAddGates(8);       // align+add
        double dot = intMultGates(6, 6) + intAddGates(14);      // MAC slice
        return mul + outer + add + dot;
      }
      case NumberFormat::E4M3: {
        double mul2 = 2.0 * fpMultGates(4, 3);
        double add = fpAddGates(4, 3);
        double dot = fpMacGates(4, 3);
        return mul2 + add + dot;
      }
      case NumberFormat::E5M2: {
        double mul2 = 2.0 * fpMultGates(5, 2);
        double add = fpAddGates(5, 2);
        double dot = fpMacGates(5, 2);
        return mul2 + add + dot;
      }
      case NumberFormat::INT8: {
        // Scaled-integer element-wise addition requires dequantize
        // (int8 x fp16-scale multiply) on both operands and a
        // requantize multiply after the max search (Section 4.2).
        double dequant = 2.0 * intMultGates(8, 11);
        double mul2 = 2.0 * intMultGates(8, 8) + shifterGates(16, 4);
        double add = intAddGates(18);
        double requant = intMultGates(16, 11) + shifterGates(16, 16);
        double dot = intMultGates(8, 8) + intAddGates(20);
        return dequant + mul2 + add + requant + dot;
      }
      case NumberFormat::FP16: {
        double mul2 = 2.0 * fpMultGates(5, 10);
        double add = fpAddGates(5, 10);
        double dot = fpMacGates(5, 10);
        return mul2 + add + dot;
      }
      case NumberFormat::FP64:
        break;
    }
    PIMBA_PANIC("no hardware lane for format");
}

double
PimAreaModel::groupGates(NumberFormat fmt)
{
    switch (fmt) {
      case NumberFormat::MX8: {
        // Shared exponent add/compare + 8 microexponent handlers
        // (Fig. 9 top paths).
        double exp = intAddGates(8) + cmpGates(8) + intAddGates(8);
        double micro = 8.0 * (intAddGates(2) + 10.0);
        return exp + micro;
      }
      case NumberFormat::INT8: {
        // Max-magnitude search tree across 32 elements for requantize.
        return 31.0 * cmpGates(16) + regGates(16);
      }
      case NumberFormat::E4M3:
      case NumberFormat::E5M2:
      case NumberFormat::FP16:
        return 0.0; // per-element exponents; no shared logic
      case NumberFormat::FP64:
        break;
    }
    PIMBA_PANIC("no hardware group logic for format");
}

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
 *  - The 8-bit formats between MX8 and fp16 follow the gate-count
 *    ratios of the lane models above: fp8 adds per-element exponent
 *    alignment, int8 adds dequantize/requantize multipliers and the
 *    max-search tree (Section 4.2).
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
    // HBM-PIM's basic fp16 ALU; other formats scale by the lane ratios.
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
