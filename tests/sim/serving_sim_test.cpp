/**
 * @file
 * System-level tests: the serving simulator must reproduce the paper's
 * qualitative results (Figs. 3, 12-15) as invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "bit_equal.h"
#include "sim/serving_sim.h"

namespace pimba {
namespace {

ServingSimulator
sim(SystemKind kind, int n_gpus = 1)
{
    return ServingSimulator(makeSystem(kind, n_gpus));
}

TEST(ServingSim, StateUpdateDominatesGpuAtLargeBatch)
{
    // Fig. 3: RetNet batch 128 spends ~74% of latency in state updates.
    auto step = sim(SystemKind::GPU).generationStep(retnet2p7b(), 128, 1);
    double frac = step.latency.fraction(BreakdownKey::StateUpdate);
    EXPECT_GT(frac, 0.60);
    EXPECT_LT(frac, 0.85);
}

TEST(ServingSim, StateUpdateFractionGrowsWithBatch)
{
    auto s32 = sim(SystemKind::GPU).generationStep(retnet2p7b(), 32, 1);
    auto s128 = sim(SystemKind::GPU).generationStep(retnet2p7b(), 128, 1);
    EXPECT_GT(s128.latency.fraction(BreakdownKey::StateUpdate),
              s32.latency.fraction(BreakdownKey::StateUpdate));
}

TEST(ServingSim, PimbaOutperformsAllBaselines)
{
    // Fig. 12, per cell: Pimba >= GPU+PIM, GPU+Q, GPU.
    for (const auto &model :
         {retnet2p7b(), mamba2_2p7b(), zamba2_7b()}) {
        double gpu = sim(SystemKind::GPU)
                         .generationThroughput(model, 128, 2048, 2048).value();
        double gpuq = sim(SystemKind::GPU_Q)
                          .generationThroughput(model, 128, 2048, 2048).value();
        double gpupim = sim(SystemKind::GPU_PIM)
                            .generationThroughput(model, 128, 2048, 2048).value();
        double pimba = sim(SystemKind::PIMBA)
                           .generationThroughput(model, 128, 2048, 2048).value();
        EXPECT_GT(pimba, gpupim) << model.name;
        EXPECT_GT(pimba, gpuq) << model.name;
        EXPECT_GT(gpupim, gpu) << model.name;
        EXPECT_GT(gpuq, gpu) << model.name;
    }
}

TEST(ServingSim, PimbaSpeedupInPaperRange)
{
    // Average gains: ~1.9x over GPU, ~1.4x over GPU+PIM (Section 6.2);
    // individual cells range up to 4.1x.
    double gpu = sim(SystemKind::GPU)
                     .generationThroughput(retnet2p7b(), 128, 2048, 2048).value();
    double pimba = sim(SystemKind::PIMBA)
                       .generationThroughput(retnet2p7b(), 128, 2048,
                                             2048).value();
    EXPECT_GT(pimba / gpu, 1.5);
    EXPECT_LT(pimba / gpu, 4.5);
}

TEST(ServingSim, StateUpdateLatencyReduction)
{
    // Fig. 13: Pimba cuts state-update latency by ~an order of
    // magnitude vs GPU and by several x vs GPU+PIM.
    ModelConfig m = scaleModel(retnet2p7b(), 70e9);
    auto gpu = sim(SystemKind::GPU, 8).generationStep(m, 128, 3072);
    auto gpupim = sim(SystemKind::GPU_PIM, 8).generationStep(m, 128,
                                                             3072);
    auto pimba = sim(SystemKind::PIMBA, 8).generationStep(m, 128, 3072);
    double su_gpu = gpu.latency.get(BreakdownKey::StateUpdate);
    double su_gpupim = gpupim.latency.get(BreakdownKey::StateUpdate);
    double su_pimba = pimba.latency.get(BreakdownKey::StateUpdate);
    EXPECT_GT(su_gpu / su_pimba, 6.0);
    EXPECT_LT(su_gpu / su_pimba, 20.0);
    EXPECT_GT(su_gpupim / su_pimba, 3.0);
    EXPECT_LT(su_gpupim / su_pimba, 10.0);
}

TEST(ServingSim, AttentionLatencyReduction)
{
    // Fig. 13 (OPT): attention gains are smaller than state-update
    // gains (~6.3x vs GPU, ~2.1x vs GPU+PIM).
    ModelConfig m = scaleModel(opt7b(), 70e9);
    auto gpu = sim(SystemKind::GPU, 8).generationStep(m, 128, 3072);
    auto gpupim = sim(SystemKind::GPU_PIM, 8).generationStep(m, 128,
                                                             3072);
    auto pimba = sim(SystemKind::PIMBA, 8).generationStep(m, 128, 3072);
    double at_gpu = gpu.latency.get(BreakdownKey::Attention);
    double at_gpupim = gpupim.latency.get(BreakdownKey::Attention);
    double at_pimba = pimba.latency.get(BreakdownKey::Attention);
    EXPECT_GT(at_gpu / at_pimba, 3.0);
    EXPECT_LT(at_gpu / at_pimba, 10.0);
    EXPECT_GT(at_gpupim / at_pimba, 1.4);
    EXPECT_LT(at_gpupim / at_pimba, 3.0);
}

TEST(ServingSim, GemmStaysOnGpu)
{
    // Offloading must not change the GEMM time (it stays on the GPU).
    ModelConfig m = mamba2_2p7b();
    auto gpu = sim(SystemKind::GPU).generationStep(m, 64, 2048);
    auto pimba = sim(SystemKind::PIMBA).generationStep(m, 64, 2048);
    EXPECT_NEAR(pimba.latency.get(BreakdownKey::GEMM),
                gpu.latency.get(BreakdownKey::GEMM), 1e-9);
}

TEST(ServingSim, EnergyAdvantage)
{
    // Fig. 14: Pimba ~2.2x lower energy than GPU, ~1.3x vs GPU+PIM.
    ModelConfig m = scaleModel(retnet2p7b(), 70e9);
    auto gpu = sim(SystemKind::GPU, 8).generationStep(m, 128, 3072);
    auto gpupim = sim(SystemKind::GPU_PIM, 8).generationStep(m, 128,
                                                             3072);
    auto pimba = sim(SystemKind::PIMBA, 8).generationStep(m, 128, 3072);
    EXPECT_GT(gpu.energy.total() / pimba.energy.total(), 1.4);
    EXPECT_GT(gpupim.energy.total() / pimba.energy.total(), 1.05);
}

TEST(ServingSim, SuLlmThroughputIndependentOfSeqLen)
{
    // Post-transformers have constant per-token cost (Section 2.2).
    auto a = sim(SystemKind::GPU).generationStep(mamba2_2p7b(), 64, 128);
    auto b = sim(SystemKind::GPU).generationStep(mamba2_2p7b(), 64,
                                                 8192);
    EXPECT_NEAR(a.seconds.value(), b.seconds.value(),
                a.seconds.value() * 1e-9);
}

TEST(ServingSim, AttentionFreeStepIsBitIdenticalAtEveryPosition)
{
    // A model without attention layers has no cache-length term, so its
    // step must be the same bits at any position: Fig. 3 costs such
    // rows at 3072, where its program costed them at 1.
    std::vector<ModelConfig> models;
    for (const ModelConfig &m :
         {retnet2p7b(), gla2p7b(), hgrn2_2p7b(), mamba2_2p7b()}) {
        ASSERT_EQ(m.attentionLayers(), 0) << m.name;
        models.push_back(m);
        models.push_back(scaleModel(m, 70e9));
    }
    int cases = 0;
    for (SystemKind kind :
         {SystemKind::GPU, SystemKind::GPU_Q, SystemKind::GPU_PIM,
          SystemKind::PIMBA, SystemKind::NEUPIMS}) {
        for (ExecutionMode mode :
             {ExecutionMode::Blocked, ExecutionMode::Overlapped}) {
            for (int n_gpus : {1, 8}) {
                SystemConfig sys = makeSystem(kind, n_gpus);
                sys.executionMode = mode;
                ServingSimulator s(sys);
                for (const ModelConfig &m : models) {
                    for (int batch : {1, 32, 128}) {
                        const StepResult at1 = s.generationStep(m, batch, 1);
                        for (uint64_t pos : {0ull, 3072ull, 1000000ull}) {
                            SCOPED_TRACE(systemName(kind) + " " +
                                         executionModeName(mode) + " x" +
                                         std::to_string(n_gpus) + " " +
                                         m.name + " b=" +
                                         std::to_string(batch) +
                                         " pos=" + std::to_string(pos));
                            const StepResult at =
                                s.generationStep(m, batch, pos);
                            expectSameBits(at.seconds.value(),
                                           at1.seconds.value(), "seconds");
                            expectSameBits(at.gpuSeconds.value(),
                                           at1.gpuSeconds.value(), "gpu");
                            expectSameBits(at.pimSeconds.value(),
                                           at1.pimSeconds.value(), "pim");
                            expectSameBits(at.syncSeconds.value(),
                                           at1.syncSeconds.value(), "sync");
                            EXPECT_TRUE(std::ranges::equal(
                                at.latency.keys(), at1.latency.keys()));
                            EXPECT_TRUE(std::ranges::equal(
                                at.energy.keys(), at1.energy.keys()));
                            for (size_t k = 0; k < kBreakdownKeys; ++k) {
                                const auto key = static_cast<BreakdownKey>(k);
                                expectSameBits(at.latency.get(key),
                                               at1.latency.get(key),
                                               breakdownKeyName(key));
                                expectSameBits(at.energy.get(key),
                                               at1.energy.get(key),
                                               breakdownKeyName(key));
                            }
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 1440);
}

TEST(ServingSim, TransformerLatencyGrowsWithSeqLen)
{
    auto a = sim(SystemKind::GPU).generationStep(opt7b(), 64, 1024);
    auto b = sim(SystemKind::GPU).generationStep(opt7b(), 64, 4096);
    EXPECT_GT(b.seconds, a.seconds * 1.5);
}

TEST(ServingSim, MemoryUsagePimbaBelowNeupims)
{
    // Fig. 15: MX8 state + KV vs fp16 halves the variable footprint.
    ModelConfig m = scaleModel(zamba2_7b(), 70e9);
    auto pimba = sim(SystemKind::PIMBA, 8).memoryUsage(m, 128, 2048);
    auto neupims = sim(SystemKind::NEUPIMS, 8).memoryUsage(m, 128, 2048);
    EXPECT_LT(pimba.total(), neupims.total());
    EXPECT_NEAR(pimba.state.value() * 2.0, neupims.state.value(),
                neupims.state.value() * 0.1);
    EXPECT_DOUBLE_EQ(pimba.weights.value(), neupims.weights.value());
}

TEST(ServingSim, NeupimsRunsStateUpdateOnGpu)
{
    SystemConfig cfg = makeSystem(SystemKind::NEUPIMS);
    EXPECT_FALSE(cfg.stateUpdateOnPim());
    EXPECT_TRUE(cfg.attentionOnPim());
    // So Pimba beats it on SU-heavy hybrid workloads.
    ModelConfig m = zamba2_7b();
    auto pimba = sim(SystemKind::PIMBA).generationStep(m, 128, 1024);
    auto neupims = sim(SystemKind::NEUPIMS).generationStep(m, 128, 1024);
    EXPECT_LT(pimba.seconds, neupims.seconds);
}

TEST(ServingSim, H100TrendsMatchA100)
{
    // Fig. 16: the ordering carries over to the H100 platform.
    SystemConfig pimba =
        makeSystem(SystemKind::PIMBA, 1, h100Config(), hbm3Config());
    SystemConfig gpu =
        makeSystem(SystemKind::GPU, 1, h100Config(), hbm3Config());
    double tp = ServingSimulator(pimba).generationThroughput(
        mamba2_2p7b(), 128, 2048, 2048).value();
    double tg = ServingSimulator(gpu).generationThroughput(
        mamba2_2p7b(), 128, 2048, 2048).value();
    EXPECT_GT(tp / tg, 1.2);
}

TEST(ServingSim, AveragedStepIsMidpoint)
{
    // The decode window covers positions [input, input + output), whose
    // mean is input + (output - 1) / 2 — NOT input + output / 2 (the
    // seed's off-by-half, which ceiled the mean and so overcharged
    // every even-length window by half a position of KV traffic; the
    // fix floors it instead, and is exact for odd windows).
    ServingSimulator s = sim(SystemKind::GPU);
    auto avg = s.averagedStep(opt7b(), 32, 2048, 2048);
    auto mid = s.generationStep(opt7b(), 32, 3071);
    EXPECT_DOUBLE_EQ(avg.seconds.value(), mid.seconds.value());
    // A one-token window is exactly the step at the input position.
    auto one = s.averagedStep(opt7b(), 32, 2048, 1);
    auto at = s.generationStep(opt7b(), 32, 2048);
    EXPECT_DOUBLE_EQ(one.seconds.value(), at.seconds.value());
}

TEST(ServingSim, PrefillStepUsesChunkMeanPosition)
{
    // Token i of a prefill chunk attends a cache of length seq_pos + i,
    // so the chunk midpoint is seq_pos + (tokens - 1) / 2. The seed's
    // seq_pos + tokens / 2 biased every chunk half a token deep.
    ServingSimulator s = sim(SystemKind::GPU);
    auto chunk = s.prefillStep(opt7b(), 512, 1024);
    auto mid = s.generationStep(opt7b(), 512, 1024 + (512 - 1) / 2);
    EXPECT_DOUBLE_EQ(chunk.seconds.value(), mid.seconds.value());
    // A 2-token chunk at position p averages p and p + 1 — it must not
    // round up to p + 1 (the seed behavior).
    auto two = s.prefillStep(opt7b(), 2, 1000);
    auto at = s.generationStep(opt7b(), 2, 1000);
    EXPECT_DOUBLE_EQ(two.seconds.value(), at.seconds.value());
}

TEST(ServingSim, GpuAttentionChargesKvAppendWrite)
{
    // The non-PIM attention path must pay the per-step append of the
    // new token's K and V, not just the cache read: at cache length 0
    // there is nothing to read, but the write (and its latency +
    // "Attention (I/O)" energy) remains.
    for (SystemKind kind : {SystemKind::GPU, SystemKind::GPU_Q}) {
        SystemConfig cfg = makeSystem(kind);
        auto step = ServingSimulator(cfg).generationStep(opt7b(), 8, 0);
        double io = step.energy.get(BreakdownKey::AttentionIo);
        EXPECT_GT(io, 0.0) << systemName(kind);
        // Exactly the K+V append bytes of the batch, every layer.
        ModelConfig m = opt7b();
        double write_bytes = static_cast<double>(m.attentionLayers()) *
                             8.0 * m.attnHeads * 2.0 * m.attnDimHead *
                             bitsPerValue(cfg.kvFormat()) / 8.0;
        EXPECT_NEAR(io, write_bytes * 8.0 * cfg.gpu.dramEnergyPerBit,
                    io * 1e-12)
            << systemName(kind);
        EXPECT_GT(step.latency.get(BreakdownKey::Attention), 0.0)
            << systemName(kind);
    }
}

TEST(ServingSim, GpuStateUpdateChargesReadAndWrite)
{
    // S = d (.) S + k v^T re-writes the whole state every step: the
    // state I/O energy must cover (at least) one full read plus one
    // full write of the state at the system's storage width.
    SystemConfig cfg = makeSystem(SystemKind::GPU);
    ModelConfig m = mamba2_2p7b();
    auto step = ServingSimulator(cfg).generationStep(m, 16, 128);
    double rw_bytes =
        2.0 * 16.0 * m.stateBytes(bitsPerValue(cfg.stateFormat()) / 8.0);
    EXPECT_GE(step.energy.get(BreakdownKey::StateUpdateIo),
              rw_bytes * 8.0 * cfg.gpu.dramEnergyPerBit);
}

TEST(ServingSim, BreakdownKeysMatchFigureLegends)
{
    auto step = sim(SystemKind::GPU).generationStep(zamba2_7b(), 32,
                                                    2048);
    const std::pair<BreakdownKey, std::string_view> legends[] = {
        {BreakdownKey::StateUpdate, "StateUpdate"},
        {BreakdownKey::Attention, "Attention"},
        {BreakdownKey::Discretization, "Discretization"},
        {BreakdownKey::CausalConv, "CausalConv"},
        {BreakdownKey::GEMM, "GEMM"},
        {BreakdownKey::Others, "Others"}};
    for (const auto &[key, name] : legends) {
        EXPECT_EQ(breakdownKeyName(key), name);
        EXPECT_GT(step.latency.get(key), 0.0) << name;
    }
}

TEST(ServingSim, SystemNames)
{
    EXPECT_EQ(systemName(SystemKind::GPU), "GPU");
    EXPECT_EQ(systemName(SystemKind::GPU_Q), "GPU+Q");
    EXPECT_EQ(systemName(SystemKind::GPU_PIM), "GPU+PIM");
    EXPECT_EQ(systemName(SystemKind::PIMBA), "Pimba");
    EXPECT_EQ(systemName(SystemKind::NEUPIMS), "NeuPIMs");
}

} // namespace
} // namespace pimba
