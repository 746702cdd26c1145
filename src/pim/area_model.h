/**
 * @file
 * Area and power model of the PIM processing units.
 *
 * The paper synthesizes RTL with Synopsys DC on FreePDK45 and scales to
 * 10 nm with DeepScaleTool (Section 6.1); we substitute per-unit areas
 * anchored to the paper's published endpoints:
 *
 *   - Table 3: Pimba compute 0.053 mm² / total 0.092 mm² / 13.4 %
 *              overhead; HBM-PIM 0.042 / 0.081 / 11.8 %.
 *   - Fig. 5(b): per-bank time-multiplexed 17.8 %, per-bank pipelined
 *                32.4 %.
 *   - Fig. 6: mx8 cheapest among the pipelined 8-bit datapaths, int8
 *             penalized by dequantize/requantize + max-search logic,
 *             fp16 far to the right; SR adds only an LFSR and adders.
 *
 * The E4M3, E5M2 and INT8 unit areas between the MX8 and fp16 anchors
 * are assumed values that keep Fig. 6's ordering; the paper publishes
 * no number for them.
 */

#ifndef PIMBA_PIM_AREA_MODEL_H
#define PIMBA_PIM_AREA_MODEL_H

#include "pim/pim_compute.h"
#include "quant/format.h"

namespace pimba {

/** Area of one design point, mm² at 10 nm in the DRAM process. */
struct PimArea
{
    double compute = 0.0; ///< all processing units of one pseudo-channel
    double buffer = 0.0;  ///< SRAM operand/result buffers

    double total() const { return compute + buffer; }
};

/**
 * Logic-area budget of one pseudo-channel region (mm²). Derived from
 * Table 3: 0.092 mm² at 13.4 % overhead. Overheads are reported against
 * this budget; prior work recommends staying below 25 % (Section 6.2).
 */
constexpr double kPimAreaBudgetMm2 = 0.6866;

/** Area model over calibrated per-unit areas. */
class PimAreaModel
{
  public:
    /**
     * Area of @p units_per_pc processing units of the given style/format
     * in one pseudo-channel, plus the shared SRAM buffer.
     */
    static PimArea designArea(PimStyle style, NumberFormat fmt,
                              bool stochastic, int units_per_pc);

    /** Area of a PimDesign with its natural unit count for @p banks. */
    static PimArea designArea(const PimDesign &design, int banks_per_pc,
                              bool stochastic = true);

    /** Overhead of @p area against the pseudo-channel logic budget. */
    static double overheadPercent(const PimArea &area);

    /** Dynamic compute power (mW) at @p freq_hz (Table 3 methodology). */
    static double computePowerMw(double compute_area_mm2, double freq_hz);
};

} // namespace pimba

#endif // PIMBA_PIM_AREA_MODEL_H
