/**
 * @file
 * Tests of the area/power model against the paper's published numbers
 * (Table 3, Fig. 5(b), Fig. 6 ordering).
 */

#include <gtest/gtest.h>

#include "pim/area_model.h"

namespace pimba {
namespace {

TEST(AreaModel, Table3PimbaAnchors)
{
    PimArea a = PimAreaModel::designArea(pimbaDesign(), 16);
    EXPECT_NEAR(a.compute, 0.053, 0.004);
    EXPECT_NEAR(a.buffer, 0.039, 1e-9);
    EXPECT_NEAR(a.total(), 0.092, 0.004);
    EXPECT_NEAR(PimAreaModel::overheadPercent(a), 13.4, 0.6);
}

TEST(AreaModel, Table3HbmPimAnchors)
{
    PimArea a = PimAreaModel::designArea(hbmPimDesign(), 16, false);
    EXPECT_NEAR(a.compute, 0.042, 0.003);
    EXPECT_NEAR(a.total(), 0.081, 0.003);
    EXPECT_NEAR(PimAreaModel::overheadPercent(a), 11.8, 0.5);
}

TEST(AreaModel, Fig5bPerBankDesigns)
{
    PimArea tm = PimAreaModel::designArea(PimStyle::TimeMultiplexed,
                                          NumberFormat::FP16, false, 16);
    PimArea pipe = PimAreaModel::designArea(PimStyle::PerBankPipelined,
                                            NumberFormat::FP16, false,
                                            16);
    EXPECT_NEAR(PimAreaModel::overheadPercent(tm), 17.8, 0.8);
    EXPECT_NEAR(PimAreaModel::overheadPercent(pipe), 32.4, 0.8);
    // The pipelined design exceeds the 25% deployability guideline;
    // the time-multiplexed one does not (Section 4.1).
    EXPECT_GT(PimAreaModel::overheadPercent(pipe), 25.0);
    EXPECT_LT(PimAreaModel::overheadPercent(tm), 25.0);
}

TEST(AreaModel, PimbaUnderDeployabilityBound)
{
    PimArea a = PimAreaModel::designArea(pimbaDesign(), 16);
    EXPECT_LT(PimAreaModel::overheadPercent(a), 25.0);
}

TEST(AreaModel, Figure6FormatOrdering)
{
    // mx8 < e5m2 < e4m3 < int8 < fp16 for the pipelined datapath.
    auto ovh = [](NumberFormat fmt) {
        return PimAreaModel::overheadPercent(PimAreaModel::designArea(
            PimStyle::PerBankPipelined, fmt, false, 16));
    };
    double mx8 = ovh(NumberFormat::MX8);
    double e5m2 = ovh(NumberFormat::E5M2);
    double e4m3 = ovh(NumberFormat::E4M3);
    double int8 = ovh(NumberFormat::INT8);
    double fp16 = ovh(NumberFormat::FP16);
    EXPECT_LT(mx8, e5m2);
    EXPECT_LT(e5m2, e4m3);
    EXPECT_LT(e4m3, int8);
    EXPECT_LT(int8, fp16);
    EXPECT_NEAR(mx8, 19.0, 1.0);
}

TEST(AreaModel, StochasticRoundingIsCheap)
{
    // Section 4.2: SR needs only an LFSR and small adders.
    PimArea rn = PimAreaModel::designArea(PimStyle::PerBankPipelined,
                                          NumberFormat::MX8, false, 16);
    PimArea sr = PimAreaModel::designArea(PimStyle::PerBankPipelined,
                                          NumberFormat::MX8, true, 16);
    double delta = PimAreaModel::overheadPercent(sr) -
                   PimAreaModel::overheadPercent(rn);
    EXPECT_GT(delta, 0.0);
    EXPECT_LT(delta, 1.0);
}

TEST(AreaModel, InterleavingCostsLessThanDoubling)
{
    // One interleaved SPU (two banks) must be far cheaper than two
    // per-bank pipelined units — that is the whole point of Pimba.
    PimArea shared = PimAreaModel::designArea(
        PimStyle::PimbaInterleaved, NumberFormat::MX8, false, 8);
    PimArea perbank = PimAreaModel::designArea(
        PimStyle::PerBankPipelined, NumberFormat::MX8, false, 16);
    EXPECT_LT(shared.compute, 0.65 * perbank.compute);
}

TEST(AreaModel, PowerAnchors)
{
    // Table 3: 8.2908 mW (Pimba) vs 6.028 mW (HBM-PIM) at 378 MHz.
    PimArea pimba = PimAreaModel::designArea(pimbaDesign(), 16);
    PimArea hbmpim = PimAreaModel::designArea(hbmPimDesign(), 16, false);
    double p = PimAreaModel::computePowerMw(pimba.compute, 378e6);
    double h = PimAreaModel::computePowerMw(hbmpim.compute, 378e6);
    EXPECT_NEAR(p, 8.29, 0.6);
    EXPECT_NEAR(h, 6.03, 0.7);
    EXPECT_GT(p, h);
}

} // namespace
} // namespace pimba
