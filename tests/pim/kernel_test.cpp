/**
 * @file
 * Tests of the PIM kernel cycle/energy model — the performance claims
 * of Sections 4.1, 5.2 and 6.2 at kernel granularity.
 */

#include <gtest/gtest.h>

#include "pim/pim_compute.h"

namespace pimba {
namespace {

StateUpdateShape
suShape(uint64_t inst = 128 * 80)
{
    return {inst, 64, 128};
}

TEST(PimKernels, StateUpdateScalesLinearly)
{
    PimComputeModel pimba(hbm2eConfig(), pimbaDesign());
    auto small = pimba.stateUpdate(suShape(1000));
    auto large = pimba.stateUpdate(suShape(8000));
    double ratio = large.seconds / small.seconds;
    EXPECT_NEAR(ratio, 8.0, 1.0);
}

TEST(PimKernels, PimbaBeatsTimeMultiplexed)
{
    // Pimba processes 4x the columns per COMP and moves half the bytes
    // (MX8 vs fp16): ~8x at kernel level before overheads.
    PimComputeModel pimba(hbm2eConfig(), pimbaDesign());
    PimComputeModel hbmpim(hbm2eConfig(), hbmPimDesign());
    auto a = pimba.stateUpdate(suShape());
    auto b = hbmpim.stateUpdate(suShape());
    EXPECT_GT(b.seconds / a.seconds, 5.0);
    EXPECT_LT(b.seconds / a.seconds, 9.0);
}

TEST(PimKernels, PipelinedFp16MatchesPimbaColumnRate)
{
    // Same column throughput (Fig. 5), but double the bytes -> ~2x time.
    PimComputeModel pimba(hbm2eConfig(), pimbaDesign());
    PimComputeModel perbank(hbm2eConfig(), perBankPipelinedDesign());
    auto a = pimba.stateUpdate(suShape());
    auto b = perbank.stateUpdate(suShape());
    EXPECT_NEAR(b.seconds / a.seconds, 2.0, 0.3);
}

TEST(PimKernels, CompCountMatchesLayout)
{
    HbmConfig hbm = hbm2eConfig();
    PimComputeModel pimba(hbm, pimbaDesign());
    StateUpdateShape shape = suShape();
    auto res = pimba.stateUpdate(shape);
    StateLayout lay = computeStateLayout(shape, NumberFormat::MX8, hbm);
    uint64_t expected = ceilDiv<uint64_t>(
        lay.columnsPerPc,
        static_cast<uint64_t>(columnsPerCompSlot(
            PimStyle::PimbaInterleaved,
            hbm.org.banksPerPseudoChannel(), true)));
    EXPECT_EQ(res.counts.comp, expected);
}

TEST(PimKernels, AttentionPhasesTouchCache)
{
    PimComputeModel pimba(hbm2eConfig(), pimbaDesign());
    AttentionShape shape{128 * 32, 128, 2048};
    auto score = pimba.attentionScore(shape);
    auto attend = pimba.attentionAttend(shape);
    EXPECT_GT(score.seconds, Seconds(0.0));
    // Same cache volume, same column rate: phases take similar time.
    EXPECT_NEAR(attend.seconds / score.seconds, 1.0, 0.2);
}

TEST(PimKernels, AttentionMx8HalvesTimeVsFp16)
{
    // Section 6.2: the 2.1x attention gain over GPU+PIM comes from MX8.
    PimComputeModel pimba(hbm2eConfig(), pimbaDesign());
    PimComputeModel hbmpim(hbm2eConfig(), hbmPimDesign());
    AttentionShape shape{128 * 32, 128, 2048};
    double a = pimba.attentionScore(shape).seconds.value() +
               pimba.attentionAttend(shape).seconds.value();
    double b = hbmpim.attentionScore(shape).seconds.value() +
               hbmpim.attentionAttend(shape).seconds.value();
    EXPECT_NEAR(b / a, 2.0, 0.35);
}

TEST(PimKernels, NeupimsRejectsStateUpdate)
{
    PimComputeModel neupims(hbm2eConfig(), neupimsDesign());
    EXPECT_DEATH(neupims.stateUpdate(suShape()), "state update");
}

TEST(PimKernels, RefreshChargedOnLongKernels)
{
    PimComputeModel pimba(hbm2eConfig(), pimbaDesign());
    auto res = pimba.stateUpdate(suShape(400000));
    EXPECT_GT(res.counts.refresh, 0u);
}

TEST(PimKernels, EnergyComponentsPositive)
{
    PimComputeModel pimba(hbm2eConfig(), pimbaDesign());
    auto res = pimba.stateUpdate(suShape());
    EXPECT_GT(res.energy.activation, Joules(0.0));
    EXPECT_GT(res.energy.column, Joules(0.0));
    EXPECT_GT(res.energy.io, Joules(0.0));
    EXPECT_GT(res.energy.compute, Joules(0.0));
    EXPECT_DOUBLE_EQ(res.energy.total().value(),
                     (res.energy.activation + res.energy.column +
                      res.energy.io + res.energy.compute)
                         .value());
}

TEST(PimKernels, StateUpdateEnergyBelowGpuTraffic)
{
    // Confining the state inside the device must cost less than moving
    // it over the bus: column energy/bit < GPU DRAM energy/bit.
    HbmConfig hbm = hbm2eConfig();
    PimComputeModel pimba(hbm, pimbaDesign());
    auto res = pimba.stateUpdate(suShape());
    StateLayout lay = computeStateLayout(suShape(), NumberFormat::MX8,
                                         hbm);
    double gpu_energy = 2.0 * 2.0 * static_cast<double>(
        lay.totalStateBytes) * 8.0 * 3.9e-12; // fp16 R+W at 3.9 pJ/bit
    EXPECT_LT(res.energy.total(), Joules(gpu_energy));
}

TEST(PimKernels, Hbm3RunsFaster)
{
    PimComputeModel a100(hbm2eConfig(), pimbaDesign());
    PimComputeModel h100(hbm3Config(), pimbaDesign());
    auto a = a100.stateUpdate(suShape());
    auto h = h100.stateUpdate(suShape());
    EXPECT_NEAR(a.seconds / h.seconds, 2.626 / 1.512, 0.1);
}

TEST(PimKernels, InternalBandwidthRealized)
{
    // Achieved state-processing rate approaches the interleaved share
    // (half) of internal bandwidth once overheads amortize.
    HbmConfig hbm = hbm2eConfig();
    PimComputeModel pimba(hbm, pimbaDesign());
    StateUpdateShape shape = suShape(100000);
    auto res = pimba.stateUpdate(shape);
    StateLayout lay = computeStateLayout(shape, NumberFormat::MX8, hbm);
    double achieved = static_cast<double>(lay.totalStateBytes) /
                      res.seconds.value();
    // Internal bandwidth: every bank delivers one column per tCCD_L.
    double internal = static_cast<double>(hbm.org.totalPseudoChannels()) *
                      hbm.org.banksPerPseudoChannel() *
                      hbm.org.columnBytes * hbm.busFreqHz /
                      hbm.timing.tCCD_L;
    double bound = internal / 2.0;
    EXPECT_LT(achieved, bound);
    // Per-pass ACT4/REG_WRITE/PRECHARGES overheads and refresh cost
    // ~35-40% of the raw column rate (Fig. 11's sequence).
    EXPECT_GT(achieved, 0.5 * bound);
}

} // namespace
} // namespace pimba
