/**
 * @file
 * Bucket-boundary pinning for the step-cost memo key math: a cache
 * length exactly on a bucket edge and one token past it must land in
 * the intended buckets for all three memos (decode, prefill, fused).
 * The engine's memoized costs are exact per key, so a key that moved
 * to the wrong bucket would silently charge a different cache length —
 * these tests freeze the edges. The last two pin what bucketing costs:
 * how far a whole decode step costed at its bucket center lands from
 * the step at its exact cache length.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "serving/step_memo.h"
#include "sim/serving_sim.h"

namespace pimba {
namespace {

TEST(StepMemo, BucketEdgesSplitExactlyAtMultiplesOfWidth)
{
    // [0, 64) -> 0, [64, 128) -> 1, ...
    EXPECT_EQ(seqBucket(0), 0u);
    EXPECT_EQ(seqBucket(kSeqBucket - 1), 0u);
    EXPECT_EQ(seqBucket(kSeqBucket), 1u);
    EXPECT_EQ(seqBucket(kSeqBucket + 1), 1u);
    EXPECT_EQ(seqBucket(2 * kSeqBucket - 1), 1u);
    EXPECT_EQ(seqBucket(2 * kSeqBucket), 2u);
    // A deep cache behaves the same: edge at 64k, one past stays put.
    EXPECT_EQ(seqBucket(64 * kSeqBucket - 1), 63u);
    EXPECT_EQ(seqBucket(64 * kSeqBucket), 64u);
    EXPECT_EQ(seqBucket(64 * kSeqBucket + 1), 64u);
}

TEST(StepMemo, BucketCenterIsTheMidpointOfTheContainingBucket)
{
    EXPECT_EQ(bucketCenter(0), kSeqBucket / 2);
    EXPECT_EQ(bucketCenter(kSeqBucket - 1), kSeqBucket / 2);
    EXPECT_EQ(bucketCenter(kSeqBucket), kSeqBucket + kSeqBucket / 2);
    EXPECT_EQ(bucketCenter(2 * kSeqBucket - 1),
              kSeqBucket + kSeqBucket / 2);
    EXPECT_EQ(bucketCenter(2 * kSeqBucket),
              2 * kSeqBucket + kSeqBucket / 2);
}

TEST(StepMemo, DecodeKeySharesBucketUpToTheEdgeOnly)
{
    const int batch = 7;
    // Same bucket: same key (the memo hit the engine relies on).
    EXPECT_EQ(decodeMemoKey(batch, kSeqBucket),
              decodeMemoKey(batch, 2 * kSeqBucket - 1));
    // Edge crossing: one token past the last in-bucket length rekeys.
    EXPECT_NE(decodeMemoKey(batch, 2 * kSeqBucket - 1),
              decodeMemoKey(batch, 2 * kSeqBucket));
    // Batch is part of the key even at identical cache lengths.
    EXPECT_NE(decodeMemoKey(batch, kSeqBucket),
              decodeMemoKey(batch + 1, kSeqBucket));
}

TEST(StepMemo, PrefillKeySharesBucketUpToTheEdgeOnly)
{
    const uint64_t chunk = 512;
    EXPECT_EQ(prefillMemoKey(chunk, 3 * kSeqBucket),
              prefillMemoKey(chunk, 4 * kSeqBucket - 1));
    EXPECT_NE(prefillMemoKey(chunk, 4 * kSeqBucket - 1),
              prefillMemoKey(chunk, 4 * kSeqBucket));
    EXPECT_NE(prefillMemoKey(chunk, 3 * kSeqBucket),
              prefillMemoKey(chunk + 1, 3 * kSeqBucket));
}

TEST(StepMemo, MixedKeyBucketsDecodeAndPrefillPositionsIndependently)
{
    const int db = 32;
    const uint64_t pt = 128;
    uint64_t base = mixedMemoKey(db, kSeqBucket, pt, 2 * kSeqBucket);
    // Within-bucket moves of either position keep the key.
    EXPECT_EQ(base,
              mixedMemoKey(db, 2 * kSeqBucket - 1, pt, 2 * kSeqBucket));
    EXPECT_EQ(base,
              mixedMemoKey(db, kSeqBucket, pt, 3 * kSeqBucket - 1));
    // Crossing either edge rekeys, and the two fields do not alias.
    uint64_t decode_edge =
        mixedMemoKey(db, 2 * kSeqBucket, pt, 2 * kSeqBucket);
    uint64_t prefill_edge =
        mixedMemoKey(db, kSeqBucket, pt, 3 * kSeqBucket);
    EXPECT_NE(base, decode_edge);
    EXPECT_NE(base, prefill_edge);
    EXPECT_NE(decode_edge, prefill_edge);
    // Batch / token counts are keyed too.
    EXPECT_NE(base, mixedMemoKey(db + 1, kSeqBucket, pt, 2 * kSeqBucket));
    EXPECT_NE(base, mixedMemoKey(db, kSeqBucket, pt + 1, 2 * kSeqBucket));
}

TEST(StepMemo, PlannedIterationKeysAvoidTheEmptySentinel)
{
    // FlatTable reserves key 0; any planned iteration has batch >= 1,
    // chunk >= 1, or decode_batch + prefill_tokens >= 1.
    EXPECT_NE(decodeMemoKey(1, 0), 0u);
    EXPECT_NE(prefillMemoKey(1, 0), 0u);
    EXPECT_NE(mixedMemoKey(1, 0, 0, 0), 0u);
    EXPECT_NE(mixedMemoKey(0, 0, 1, 0), 0u);
}

TEST(StepMemo, MixedKeyFieldsStayInsideTheirLanes)
{
    // Maximal in-bound fields must not collide with a key that differs
    // in exactly one field — i.e. no carry into a neighbouring lane.
    const int db = static_cast<int>(kMixedMaxBatch - 1);
    const uint64_t pt = kMixedMaxPrefillTokens - 1;
    const uint64_t deep = (kMixedMaxBucket - 1) * kSeqBucket;
    uint64_t k = mixedMemoKey(db, deep, pt, deep);
    EXPECT_NE(k, mixedMemoKey(db - 1, deep, pt, deep));
    EXPECT_NE(k, mixedMemoKey(db, deep - kSeqBucket, pt, deep));
    EXPECT_NE(k, mixedMemoKey(db, deep, pt - 1, deep));
    EXPECT_NE(k, mixedMemoKey(db, deep, pt, deep - kSeqBucket));
}

const SystemKind kBucketSystems[] = {SystemKind::GPU, SystemKind::GPU_Q,
                                     SystemKind::GPU_PIM, SystemKind::PIMBA,
                                     SystemKind::NEUPIMS};

TEST(StepMemo, AttentionFreeStepsDoNotDependOnCacheLength)
{
    // No attention layer, no cache-length term: bucketing is exact.
    for (SystemKind kind : kBucketSystems) {
        ServingSimulator sim(makeSystem(kind));
        for (const ModelConfig &m :
             {retnet2p7b(), gla2p7b(), hgrn2_2p7b(), mamba2_2p7b()}) {
            for (uint64_t seq : {0u, 63u, 64u, 1000u, 4095u})
                EXPECT_EQ(sim.generationStep(m, 32, seq).seconds,
                          sim.generationStep(m, 32, bucketCenter(seq))
                              .seconds)
                    << systemName(kind) << " " << m.name << " " << seq;
        }
    }
}

TEST(StepMemo, BucketCenterStepErrorIsBounded)
{
    // Attention cost is not affine in cache length on every system: the
    // PIM attention kernels are step functions of seqLen (whole DRAM
    // rows and passes), so the bucket center is only near the average.
    // This pins the measured worst relative error of a whole decode
    // step costed at bucketCenter(seq) instead of seq, over every cache
    // length below 1024 (the error shrinks as the cache grows). The
    // first bucket is worst: at seq 0 the exact step has no attention
    // traffic at all, while its bucket center has 32 positions.
    double worst = 0.0;
    double worst_past_first = 0.0;
    for (SystemKind kind : kBucketSystems) {
        ServingSimulator sim(makeSystem(kind));
        for (const ModelConfig &m : {zamba2_7b(), opt7b()}) {
            for (int batch : {1, 32, 128}) {
                for (uint64_t seq = 0; seq < 1024; ++seq) {
                    double exact =
                        sim.generationStep(m, batch, seq).seconds.value();
                    double memo =
                        sim.generationStep(m, batch, bucketCenter(seq))
                            .seconds.value();
                    double err = std::fabs(memo - exact) / exact;
                    worst = std::max(worst, err);
                    if (seq >= kSeqBucket)
                        worst_past_first = std::max(worst_past_first, err);
                }
            }
        }
    }
    // Measured: 13.93% (GPU, OPT-7B, batch 128, seq 0), and 10.90% from
    // the second bucket on (same system and model, seq 64).
    EXPECT_LE(worst, 0.140);
    EXPECT_LE(worst_past_first, 0.110);
}

} // namespace
} // namespace pimba
