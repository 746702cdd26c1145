/**
 * @file
 * Cross-module integration tests: full paths from model description to
 * simulated system numbers, and consistency between the independent
 * layers of the stack.
 */

#include <gtest/gtest.h>

#include "accuracy/evaluate.h"
#include "pim/area_model.h"
#include "pim/spu.h"
#include "sim/serving_sim.h"

namespace pimba {
namespace {

TEST(EndToEnd, Figure12CellReproduces)
{
    // One full Fig. 12 cell: all four systems on Mamba-2 2.7B, b=64.
    ModelConfig m = mamba2_2p7b();
    std::map<SystemKind, double> thr;
    for (SystemKind k : mainSystems()) {
        ServingSimulator sim(makeSystem(k));
        thr[k] = sim.generationThroughput(m, 64, 2048, 2048).value();
        EXPECT_GT(thr[k], 0.0);
    }
    EXPECT_GT(thr[SystemKind::PIMBA], thr[SystemKind::GPU]);
    double speedup = thr[SystemKind::PIMBA] / thr[SystemKind::GPU];
    EXPECT_GT(speedup, 1.2);
    EXPECT_LT(speedup, 4.5);
}

TEST(EndToEnd, PimKernelTimeConsistentWithScheduler)
{
    // The serving simulator's state-update latency for Pimba must be
    // exactly the PIM kernel model's (plus the launch overhead), i.e.
    // the layers stack without hidden fudge factors.
    ModelConfig m = retnet2p7b();
    SystemConfig cfg = makeSystem(SystemKind::PIMBA);
    ServingSimulator sim(cfg);
    auto step = sim.generationStep(m, 32, 1);

    PimComputeModel pim(cfg.hbm, pimbaDesign());
    StateUpdateShape shape{static_cast<uint64_t>(32) * m.suHeads,
                           m.dimHead, m.dimState};
    double per_layer = pim.stateUpdate(shape).seconds.value() +
                       cfg.gpu.kernelLaunchOverhead;
    EXPECT_NEAR(step.latency.get(BreakdownKey::StateUpdate),
                per_layer * m.stateUpdateLayers(), 1e-9);
}

TEST(EndToEnd, SpePipelineMatchesKernelThroughputModel)
{
    // The occupancy simulation and the columnsPerCompSlot constant used
    // by the kernel model must agree.
    auto res = simulateSpuPipeline(PimStyle::PimbaInterleaved, 20000);
    double per_pair = res.throughputPerBankPair();
    double model = columnsPerCompSlot(PimStyle::PimbaInterleaved, 16,
                                      true) / 8.0; // 8 pairs per PC
    EXPECT_NEAR(per_pair, model, 0.01);
}

TEST(EndToEnd, AreaAndPerformanceTradeoffOfFig5)
{
    // Fig. 5's joint claim: pipelined throughput at time-multiplexed
    // cost is impossible per bank — Pimba's sharing resolves it.
    PimArea pimba = PimAreaModel::designArea(pimbaDesign(), 16);
    PimArea perbank = PimAreaModel::designArea(
        PimStyle::PerBankPipelined, NumberFormat::FP16, false, 16);
    EXPECT_LT(PimAreaModel::overheadPercent(pimba), 25.0);
    EXPECT_GT(PimAreaModel::overheadPercent(perbank), 25.0);

    PimComputeModel fast(hbm2eConfig(), pimbaDesign());
    PimComputeModel slow(hbm2eConfig(), hbmPimDesign());
    StateUpdateShape shape{128 * 80, 64, 128};
    EXPECT_LT(fast.stateUpdate(shape).seconds,
              slow.stateUpdate(shape).seconds);
}

TEST(EndToEnd, QuantFormatsConsistentAcrossLayers)
{
    // The storage width the simulator charges equals the codec's.
    SystemConfig pimba = makeSystem(SystemKind::PIMBA);
    EXPECT_EQ(pimba.stateFormat(), NumberFormat::MX8);
    EXPECT_DOUBLE_EQ(bitsPerValue(pimba.stateFormat()), 8.0);
    SystemConfig gpuq = makeSystem(SystemKind::GPU_Q);
    EXPECT_DOUBLE_EQ(bitsPerValue(gpuq.stateFormat()), 8.5);
}

TEST(EndToEnd, AccuracyAndAreaParetoPointForMx8)
{
    // Fig. 6's conclusion, end to end: MX8+SR sits at low area AND
    // near-baseline perplexity; fp16 matches accuracy at much larger
    // area; e5m2 is small but inaccurate.
    auto model = accuracyModels()[3]; // Mamba-2
    double base = evalPerplexity(model, QuantSpec{}, 256);
    double mx8 = evalPerplexity(
        model, {NumberFormat::MX8, Rounding::Stochastic}, 256);
    double e5m2 = evalPerplexity(model, {NumberFormat::E5M2,
                                         Rounding::Nearest}, 256);
    auto ovh = [](NumberFormat fmt) {
        return PimAreaModel::overheadPercent(PimAreaModel::designArea(
            PimStyle::PerBankPipelined, fmt, true, 16));
    };
    EXPECT_LT(mx8, base * 1.10);
    EXPECT_GT(e5m2, base * 1.05);
    EXPECT_LT(ovh(NumberFormat::MX8), ovh(NumberFormat::FP16));
    EXPECT_LT(ovh(NumberFormat::MX8), ovh(NumberFormat::INT8));
}

TEST(EndToEnd, ThroughputBatchScaling)
{
    // Throughput grows with batch for every system (Fig. 12's x-axis),
    // sub-linearly because the state update is batch-linear.
    for (SystemKind k : mainSystems()) {
        ServingSimulator sim(makeSystem(k));
        double t32 = sim.generationThroughput(mamba2_2p7b(), 32, 2048,
                                              2048).value();
        double t128 = sim.generationThroughput(mamba2_2p7b(), 128, 2048,
                                               2048).value();
        EXPECT_GT(t128, t32) << systemName(k);
        EXPECT_LT(t128, 4.0 * t32) << systemName(k);
    }
}

TEST(EndToEnd, LargeScaleUsesAllDevices)
{
    // 70B on 8 GPUs must beat 70B on 1 GPU (sanity of TP sharding).
    ModelConfig m = scaleModel(mamba2_2p7b(), 70e9);
    ServingSimulator one(makeSystem(SystemKind::PIMBA, 1));
    ServingSimulator eight(makeSystem(SystemKind::PIMBA, 8));
    double t1 = one.generationThroughput(m, 64, 1024, 1024).value();
    double t8 = eight.generationThroughput(m, 64, 1024, 1024).value();
    EXPECT_GT(t8, 2.0 * t1);
}

} // namespace
} // namespace pimba
