/**
 * @file
 * Tests of the model zoo: parameter counts, 70B scaling (Section 6.1),
 * and per-token operator-graph generation.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "models/model_config.h"

namespace pimba {

// Name the parameter by its model, not its raw bytes: gtest's default dump
// starts with the heap address of the name string, so the discovered test
// names would change from run to run.
void PrintTo(const ModelConfig &cfg, std::ostream *os)
{
    *os << cfg.name;
}

namespace {

TEST(ModelZoo, SmallScaleParameterCounts)
{
    // 2.7B-class SU-LLMs within 15% of nominal; 7B-class within 20%.
    EXPECT_NEAR(retnet2p7b().paramCount(), 2.7e9, 0.4e9);
    EXPECT_NEAR(gla2p7b().paramCount(), 2.7e9, 0.4e9);
    EXPECT_NEAR(hgrn2_2p7b().paramCount(), 2.7e9, 0.4e9);
    EXPECT_NEAR(mamba2_2p7b().paramCount(), 2.7e9, 0.4e9);
    EXPECT_NEAR(zamba2_7b().paramCount(), 7.5e9, 1.2e9);
    EXPECT_NEAR(opt7b().paramCount(), 6.7e9, 0.7e9);
    EXPECT_NEAR(opt2p7b().paramCount(), 2.7e9, 0.4e9);
}

TEST(ModelZoo, LayerKindSplit)
{
    EXPECT_EQ(retnet2p7b().attentionLayers(), 0);
    EXPECT_EQ(retnet2p7b().stateUpdateLayers(), 32);
    EXPECT_EQ(opt7b().attentionLayers(), 32);
    EXPECT_EQ(opt7b().stateUpdateLayers(), 0);
    // Zamba2: one attention layer per six Mamba-2 layers.
    ModelConfig z = zamba2_7b();
    EXPECT_EQ(z.attentionLayers(), z.layers / 7);
    EXPECT_EQ(z.stateUpdateLayers(), z.layers - z.layers / 7);
}

TEST(ModelZoo, StateAndKvFootprints)
{
    // Mamba-2 2.7B: 64 layers x 80 heads x 64 x 128 x 2 B = 83.9 MB.
    EXPECT_NEAR(mamba2_2p7b().stateBytes(2.0), 83.9e6, 1e6);
    EXPECT_EQ(retnet2p7b().kvBytesPerToken(2.0), 0.0);
    // OPT 6.7B: 32 layers x 4096 hidden x 2 (K,V) x 2 B = 524 KB/token.
    EXPECT_NEAR(opt7b().kvBytesPerToken(2.0), 524288.0, 1.0);
}

class Scaled70b : public ::testing::TestWithParam<ModelConfig>
{
};

TEST_P(Scaled70b, HitsTargetParams)
{
    ModelConfig big = scaleModel(GetParam(), 70e9);
    EXPECT_NEAR(big.paramCount(), 70e9, 3.5e9) << GetParam().name;
}

TEST_P(Scaled70b, KeepsHeadCounts)
{
    ModelConfig base = GetParam();
    ModelConfig big = scaleModel(base, 70e9);
    EXPECT_EQ(big.suHeads, base.suHeads);
    EXPECT_EQ(big.attnHeads, base.attnHeads);
}

TEST_P(Scaled70b, WidensWithHidden)
{
    ModelConfig base = GetParam();
    ModelConfig big = scaleModel(base, 70e9);
    EXPECT_GT(big.dModel, base.dModel);
    if (base.suHeads > 0) {
        EXPECT_GE(big.dimHead, base.dimHead);
        EXPECT_GE(big.dimState, base.dimState);
    }
}

TEST_P(Scaled70b, PreservesHybridRatio)
{
    ModelConfig base = GetParam();
    ModelConfig big = scaleModel(base, 70e9);
    if (base.attnEvery > 1) {
        EXPECT_EQ(big.layers % base.attnEvery, 0);
        EXPECT_EQ(big.attentionLayers(), big.layers / base.attnEvery);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, Scaled70b,
                         ::testing::ValuesIn(evaluationModels()),
                         [](const auto &info) {
                             std::string n = info.param.name;
                             for (auto &c : n) {
                                 if (!isalnum(static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

TEST(OpGraph, ClassesPresent)
{
    auto ops = generationStepOps(mamba2_2p7b(), 32, 2048);
    std::map<OpClass, int> counts;
    for (const auto &op : ops)
        counts[op.cls]++;
    EXPECT_EQ(counts[OpClass::StateUpdate], 64);
    EXPECT_EQ(counts[OpClass::CausalConv], 64);
    EXPECT_EQ(counts[OpClass::Discretization], 64);
    EXPECT_EQ(counts[OpClass::Attention], 0);
    EXPECT_GT(counts[OpClass::GEMM], 64);
    EXPECT_EQ(counts[OpClass::Communication], 0); // tp = 1
}

TEST(OpGraph, AttentionModelHasNoStateUpdates)
{
    auto ops = generationStepOps(opt7b(), 32, 2048);
    for (const auto &op : ops) {
        ASSERT_NE(op.cls, OpClass::StateUpdate);
        ASSERT_NE(op.cls, OpClass::CausalConv);
        ASSERT_NE(op.cls, OpClass::Discretization);
    }
}

TEST(OpGraph, HybridHasBoth)
{
    auto ops = generationStepOps(zamba2_7b(), 32, 2048);
    int su = 0, attn = 0;
    for (const auto &op : ops) {
        su += op.cls == OpClass::StateUpdate;
        attn += op.cls == OpClass::Attention;
    }
    EXPECT_EQ(su, 66);
    EXPECT_EQ(attn, 11);
}

TEST(OpGraph, TensorParallelShardsWork)
{
    auto single = generationStepOps(opt7b(), 128, 2048, 1);
    auto sharded = generationStepOps(opt7b(), 128, 2048, 8);
    double flops1 = 0.0, flops8 = 0.0;
    bool has_comm = false;
    for (const auto &op : single)
        flops1 += op.flops;
    for (const auto &op : sharded) {
        flops8 += op.flops;
        has_comm |= op.cls == OpClass::Communication;
    }
    EXPECT_TRUE(has_comm);
    EXPECT_NEAR(flops8, flops1 / 8.0, flops1 * 0.03);
}

TEST(OpGraph, StateUpdateShapeMatchesModel)
{
    ModelConfig m = retnet2p7b();
    auto ops = generationStepOps(m, 64, 1024);
    for (const auto &op : ops) {
        if (op.cls == OpClass::StateUpdate) {
            EXPECT_EQ(op.su.instances,
                      static_cast<uint64_t>(64) * m.suHeads);
            EXPECT_EQ(op.su.dimHead, m.dimHead);
            EXPECT_EQ(op.su.dimState, m.dimState);
        }
    }
}

TEST(OpGraph, AttentionSeqLenPropagates)
{
    auto ops = generationStepOps(opt7b(), 16, 4096);
    for (const auto &op : ops) {
        if (op.cls == OpClass::Attention) {
            EXPECT_EQ(op.attn.seqLen, 4096u);
        }
    }
}

TEST(OpGraph, BatchScalesStateUpdateLinearly)
{
    auto a = generationStepOps(mamba2_2p7b(), 32, 2048);
    auto b = generationStepOps(mamba2_2p7b(), 128, 2048);
    Bytes su_a{0.0}, su_b{0.0};
    for (const auto &op : a)
        if (op.cls == OpClass::StateUpdate)
            su_a += op.memBytes;
    for (const auto &op : b)
        if (op.cls == OpClass::StateUpdate)
            su_b += op.memBytes;
    EXPECT_NEAR(su_b / su_a, 4.0, 0.05);
}

TEST(OpGraph, OpClassNamesMatchPaperLegends)
{
    auto name = [](OpClass cls) { return breakdownKeyName(opClassKey(cls)); };
    EXPECT_STREQ(name(OpClass::StateUpdate), "StateUpdate");
    EXPECT_STREQ(name(OpClass::CausalConv), "CausalConv");
    EXPECT_STREQ(name(OpClass::Discretization), "Discretization");
    EXPECT_STREQ(name(OpClass::Communication), "Communication");
}

} // namespace
} // namespace pimba
