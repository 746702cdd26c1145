/**
 * @file
 * Execution-mode invariants of the step simulator. Overlapped mode
 * (the NeuPIMs-style two-sub-batch GPU<->PIM pipeline of Figure 15)
 * runs exactly the same kernels as blocked mode, so:
 *
 *  - energy is identical to blocked, per category and in total;
 *  - latency is never worse than blocked for any system/model pair,
 *    and strictly better whenever a PIM phase exists to hide
 *    (PIM attention, or PIM state update on an SU model);
 *  - GPU-only systems and single-token batches degrade to blocked;
 *  - the gpu/pim/sync phase decomposition always sums to the blocked
 *    latency, in both modes.
 *
 * Plus the pinned Figure 15 claim: on the PIM-attention systems,
 * overlapped per-token latency sits strictly below blocked at equal
 * reported energy.
 */

#include <gtest/gtest.h>

#include "sim/serving_sim.h"

namespace pimba {
namespace {

const std::vector<SystemKind> kAllSystems = {
    SystemKind::GPU, SystemKind::GPU_Q, SystemKind::GPU_PIM,
    SystemKind::PIMBA, SystemKind::NEUPIMS};

ServingSimulator
modeSim(SystemKind kind, ExecutionMode mode, int n_gpus = 1)
{
    SystemConfig cfg = makeSystem(kind, n_gpus);
    cfg.executionMode = mode;
    return ServingSimulator(cfg);
}

std::vector<ModelConfig>
testMatrix()
{
    return {mamba2_2p7b(), opt2p7b(), zamba2_7b()};
}

TEST(ExecutionMode, Names)
{
    EXPECT_EQ(executionModeName(ExecutionMode::Blocked), "blocked");
    EXPECT_EQ(executionModeName(ExecutionMode::Overlapped), "overlapped");
}

TEST(ExecutionMode, EnergyIdenticalToBlocked)
{
    for (SystemKind kind : kAllSystems) {
        for (const ModelConfig &m : testMatrix()) {
            auto blk = modeSim(kind, ExecutionMode::Blocked)
                           .generationStep(m, 32, 2048);
            auto ovl = modeSim(kind, ExecutionMode::Overlapped)
                           .generationStep(m, 32, 2048);
            EXPECT_DOUBLE_EQ(blk.energy.total(), ovl.energy.total())
                << systemName(kind) << " " << m.name;
            for (BreakdownKey key : blk.energy.keys())
                EXPECT_DOUBLE_EQ(blk.energy.get(key),
                                 ovl.energy.get(key))
                    << systemName(kind) << " " << m.name << " "
                    << breakdownKeyName(key);
        }
    }
}

TEST(ExecutionMode, LatencyNeverWorseThanBlocked)
{
    for (SystemKind kind : kAllSystems) {
        for (const ModelConfig &m : testMatrix()) {
            for (int batch : {1, 2, 32, 128}) {
                auto blk = modeSim(kind, ExecutionMode::Blocked)
                               .generationStep(m, batch, 2048);
                auto ovl = modeSim(kind, ExecutionMode::Overlapped)
                               .generationStep(m, batch, 2048);
                EXPECT_LE(ovl.seconds, blk.seconds * (1.0 + 1e-12))
                    << systemName(kind) << " " << m.name << " b="
                    << batch;
            }
        }
    }
}

TEST(ExecutionMode, StrictlyFasterWhenPimAttentionOn)
{
    // OPT and Zamba2 have attention layers; on the PIM-attention
    // systems those phases overlap the other sub-batch's GEMMs.
    for (SystemKind kind : {SystemKind::GPU_PIM, SystemKind::PIMBA,
                            SystemKind::NEUPIMS}) {
        ASSERT_TRUE(makeSystem(kind).attentionOnPim());
        for (const ModelConfig &m : {opt2p7b(), zamba2_7b()}) {
            auto blk = modeSim(kind, ExecutionMode::Blocked)
                           .generationStep(m, 32, 2048);
            auto ovl = modeSim(kind, ExecutionMode::Overlapped)
                           .generationStep(m, 32, 2048);
            EXPECT_LT(ovl.seconds, blk.seconds)
                << systemName(kind) << " " << m.name;
        }
    }
}

TEST(ExecutionMode, StrictlyFasterWhenPimStateUpdateOn)
{
    for (SystemKind kind : {SystemKind::GPU_PIM, SystemKind::PIMBA}) {
        ASSERT_TRUE(makeSystem(kind).stateUpdateOnPim());
        auto blk = modeSim(kind, ExecutionMode::Blocked)
                       .generationStep(mamba2_2p7b(), 32, 2048);
        auto ovl = modeSim(kind, ExecutionMode::Overlapped)
                       .generationStep(mamba2_2p7b(), 32, 2048);
        EXPECT_LT(ovl.seconds, blk.seconds) << systemName(kind);
    }
}

TEST(ExecutionMode, GpuOnlySystemsUnaffected)
{
    for (SystemKind kind : {SystemKind::GPU, SystemKind::GPU_Q}) {
        for (const ModelConfig &m : testMatrix()) {
            auto blk = modeSim(kind, ExecutionMode::Blocked)
                           .generationStep(m, 32, 2048);
            auto ovl = modeSim(kind, ExecutionMode::Overlapped)
                           .generationStep(m, 32, 2048);
            EXPECT_DOUBLE_EQ(ovl.seconds.value(), blk.seconds.value())
                << systemName(kind) << " " << m.name;
        }
    }
}

TEST(ExecutionMode, SingleTokenBatchFallsBackToBlocked)
{
    // One token cannot split into two sub-batches: no pipeline.
    auto blk = modeSim(SystemKind::PIMBA, ExecutionMode::Blocked)
                   .generationStep(zamba2_7b(), 1, 2048);
    auto ovl = modeSim(SystemKind::PIMBA, ExecutionMode::Overlapped)
                   .generationStep(zamba2_7b(), 1, 2048);
    EXPECT_DOUBLE_EQ(ovl.seconds.value(), blk.seconds.value());
}

TEST(ExecutionMode, PhaseDecompositionSumsToBlocked)
{
    for (SystemKind kind : kAllSystems) {
        for (const ModelConfig &m : testMatrix()) {
            for (ExecutionMode mode : {ExecutionMode::Blocked,
                                       ExecutionMode::Overlapped}) {
                auto step = modeSim(kind, mode).generationStep(m, 32,
                                                               2048);
                EXPECT_NEAR(step.blockedSeconds().value(),
                            (step.gpuSeconds + step.pimSeconds +
                             step.syncSeconds)
                                .value(),
                            step.blockedSeconds().value() * 1e-12);
                double want = mode == ExecutionMode::Overlapped &&
                                      step.pimSeconds > Seconds(0.0)
                                  ? step.overlappedSeconds().value()
                                  : step.blockedSeconds().value();
                EXPECT_NEAR(step.seconds.value(), want, want * 1e-9)
                    << systemName(kind) << " " << m.name << " "
                    << executionModeName(mode);
            }
        }
    }
}

TEST(ExecutionMode, Fig15OverlappedBeatsBlockedAtEqualEnergy)
{
    // The pinned bench_fig15_neupims claim: on a PIM-attention system
    // serving Zamba2-70B at batch 128, overlapped mode shows lower
    // per-token latency than blocked at identical reported energy.
    ModelConfig model = scaleModel(zamba2_7b(), 70e9);
    for (SystemKind kind : {SystemKind::NEUPIMS, SystemKind::PIMBA}) {
        auto blk = modeSim(kind, ExecutionMode::Blocked, 8)
                       .generationStep(model, 128, 1024 + 512);
        auto ovl = modeSim(kind, ExecutionMode::Overlapped, 8)
                       .generationStep(model, 128, 1024 + 512);
        EXPECT_LT(ovl.seconds, blk.seconds) << systemName(kind);
        EXPECT_DOUBLE_EQ(ovl.energy.total(), blk.energy.total())
            << systemName(kind);
    }
}

TEST(ExecutionMode, SetExecutionModeSwitchesCosting)
{
    ServingSimulator s(makeSystem(SystemKind::PIMBA));
    Seconds blocked = s.generationStep(zamba2_7b(), 32, 2048).seconds;
    s.setExecutionMode(ExecutionMode::Overlapped);
    EXPECT_EQ(s.system().executionMode, ExecutionMode::Overlapped);
    Seconds overlapped = s.generationStep(zamba2_7b(), 32, 2048).seconds;
    EXPECT_LT(overlapped, blocked);
    s.setExecutionMode(ExecutionMode::Blocked);
    EXPECT_DOUBLE_EQ(s.generationStep(zamba2_7b(), 32, 2048).seconds.value(),
                     blocked.value());
}

} // namespace
} // namespace pimba
