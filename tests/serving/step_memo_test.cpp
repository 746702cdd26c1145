/**
 * @file
 * Bucket-boundary pinning for the step-cost memo: a cache length
 * exactly on a bucket edge and one token past it must land in the
 * intended buckets for every step kind (decode, prefill, fused). The
 * engine's memoized costs are exact per key, so a key that moved to the
 * wrong bucket would silently charge a different cache length — these
 * tests freeze the edges. The store tests check that each step kind is
 * exactly the generationStep call its key names, and that kinds share
 * entries. The last two pin what bucketing costs: how far a whole
 * decode step costed at its bucket center lands from the step at its
 * exact cache length.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "serving/step_cost_store.h"
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

/// A store on the GPU system: cheap misses, and its counters show
/// which lookups share a key.
StepCostStore
gpuStore(const ModelConfig &model = opt7b())
{
    return StepCostStore(ServingSimulator(makeSystem(SystemKind::GPU)),
                         model);
}

TEST(StepMemo, DecodeKeySharesBucketUpToTheEdgeOnly)
{
    StepCostStore store = gpuStore();
    const int batch = 7;
    // Same bucket: same key (the memo hit the engine relies on).
    store.decodeStep(batch, kSeqBucket);
    store.decodeStep(batch, 2 * kSeqBucket - 1);
    EXPECT_EQ(store.stats().misses, 1u);
    // Edge crossing: one token past the last in-bucket length rekeys.
    store.decodeStep(batch, 2 * kSeqBucket);
    EXPECT_EQ(store.stats().misses, 2u);
    // Batch is part of the key even at identical cache lengths.
    store.decodeStep(batch + 1, kSeqBucket);
    EXPECT_EQ(store.stats().misses, 3u);
}

TEST(StepMemo, PrefillKeySharesBucketUpToTheEdgeOnly)
{
    StepCostStore store = gpuStore();
    const uint64_t chunk = 512;
    store.prefillStep(chunk, 3 * kSeqBucket);
    store.prefillStep(chunk, 4 * kSeqBucket - 1);
    EXPECT_EQ(store.stats().misses, 1u);
    store.prefillStep(chunk, 4 * kSeqBucket);
    EXPECT_EQ(store.stats().misses, 2u);
    store.prefillStep(chunk + 1, 3 * kSeqBucket);
    EXPECT_EQ(store.stats().misses, 3u);
}

TEST(StepMemo, MixedKeyBucketsDecodeAndPrefillPositionsIndependently)
{
    StepCostStore store = gpuStore();
    const int db = 32;
    const uint64_t pt = 128;
    store.mixedStep(db, kSeqBucket, pt, 2 * kSeqBucket);
    // Within-bucket moves of either position keep the key.
    store.mixedStep(db, 2 * kSeqBucket - 1, pt, 2 * kSeqBucket);
    store.mixedStep(db, kSeqBucket, pt, 3 * kSeqBucket - 1);
    EXPECT_EQ(store.stats().misses, 1u);
    // Crossing either edge moves the mean position, so it rekeys.
    store.mixedStep(db, 2 * kSeqBucket, pt, 2 * kSeqBucket);
    EXPECT_EQ(store.stats().misses, 2u);
    store.mixedStep(db, kSeqBucket, pt, 3 * kSeqBucket);
    EXPECT_EQ(store.stats().misses, 3u);
    // Batch / token counts are keyed too.
    store.mixedStep(db + 1, kSeqBucket, pt, 2 * kSeqBucket);
    store.mixedStep(db, kSeqBucket, pt + 1, 2 * kSeqBucket);
    EXPECT_EQ(store.stats().misses, 5u);
    EXPECT_EQ(store.stats().lookups, 7u);
}

TEST(StepMemo, PlannedIterationKeysAvoidTheEmptySentinel)
{
    // FlatTable reserves key 0; any planned iteration has batch >= 1,
    // chunk >= 1, or decode_batch + prefill_tokens >= 1.
    EXPECT_NE(stepMemoKey({1, 0}), 0u);
    EXPECT_NE(stepMemoKey(prefillPoint(1, 0)), 0u);
    EXPECT_NE(stepMemoKey(mixedPoint(1, 0, 0, 0)), 0u);
    EXPECT_NE(stepMemoKey(mixedPoint(0, 0, 1, 0)), 0u);
}

TEST(StepMemo, MixedKeyFieldsStayInsideTheirLanes)
{
    // Maximal fields must not collide with a key that differs in
    // exactly one field — i.e. no carry into a neighbouring lane.
    const int top = std::numeric_limits<int>::max();
    const uint64_t deep = kMemoMaxPosition;
    const uint64_t k = stepMemoKey({top, deep});
    EXPECT_NE(k, stepMemoKey({top - 1, deep}));
    EXPECT_NE(k, stepMemoKey({top, deep - 1}));
    EXPECT_NE(stepMemoKey({1, deep}), stepMemoKey({2, 0}));
}

TEST(StepMemo, EveryStepKindIsItsGenerationStepBitForBit)
{
    // A memo entry is exactly the generationStep call its key names:
    // decode at the bucket center of its mean, prefill at the midpoint
    // of a chunk based at its bucket center, fused at the token-weighted
    // mean of both bucket centers. Each lookup runs twice: a miss, then
    // a hit.
    auto same = [](const StepCost &c, const StepResult &r,
                   const std::string &what) {
        EXPECT_EQ(std::bit_cast<uint64_t>(c.seconds.value()),
                  std::bit_cast<uint64_t>(r.seconds.value()))
            << what;
        EXPECT_EQ(std::bit_cast<uint64_t>(c.gpu.value()),
                  std::bit_cast<uint64_t>(r.gpuSeconds.value()))
            << what;
        EXPECT_EQ(std::bit_cast<uint64_t>(c.pim.value()),
                  std::bit_cast<uint64_t>(r.pimSeconds.value()))
            << what;
        EXPECT_EQ(std::bit_cast<uint64_t>(c.sync.value()),
                  std::bit_cast<uint64_t>(r.syncSeconds.value()))
            << what;
    };
    std::mt19937_64 rng(0x57E9C057u);
    auto draw = [&rng](uint64_t lo, uint64_t hi) {
        return std::uniform_int_distribution<uint64_t>(lo, hi)(rng);
    };
    for (SystemKind kind : {SystemKind::GPU, SystemKind::PIMBA,
                            SystemKind::NEUPIMS}) {
        for (ExecutionMode mode :
             {ExecutionMode::Blocked, ExecutionMode::Overlapped}) {
            for (const ModelConfig &m : {opt7b(), zamba2_7b()}) {
                StepCostStore store(ServingSimulator(makeSystem(kind)), m,
                                    mode);
                const ServingSimulator &sim = store.simulator();
                for (int i = 0; i < 40; ++i) {
                    const std::string where =
                        systemName(kind) + " " + m.name + " shape " +
                        std::to_string(i);
                    const int db = static_cast<int>(draw(0, 256));
                    const uint64_t ds = draw(0, 8192);
                    const uint64_t pt = draw(1, 1024);
                    const uint64_t pp = draw(0, 8192);
                    const int batch = std::max(db, 1);
                    const uint64_t total = static_cast<uint64_t>(db) + pt;
                    const uint64_t mean =
                        (static_cast<uint64_t>(db) * bucketCenter(ds) +
                         pt * bucketCenter(pp)) /
                        total;
                    for (int pass = 0; pass < 2; ++pass) {
                        same(store.decodeStep(batch, ds),
                             sim.generationStep(m, batch, bucketCenter(ds)),
                             where + " decode");
                        same(store.prefillStep(pt, pp),
                             sim.generationStep(
                                 m, static_cast<int>(pt),
                                 bucketCenter(pp) + (pt - 1) / 2),
                             where + " prefill");
                        same(store.mixedStep(db, ds, pt, pp),
                             sim.generationStep(m, static_cast<int>(total),
                                                mean),
                             where + " fused");
                    }
                    // The simulator's own prefill and fused steps reduce
                    // the same way.
                    same(store.prefillStep(pt, pp),
                         sim.prefillStep(m, pt, bucketCenter(pp)),
                         where + " prefillStep");
                    same(store.mixedStep(db, ds, pt, pp),
                         sim.mixedStep(m, db, bucketCenter(ds), pt,
                                       bucketCenter(pp)),
                         where + " mixedStep");
                }
            }
        }
    }
}

TEST(StepMemo, StepKindsAtTheSameCallShareOneEntry)
{
    StepCostStore store = gpuStore();
    // A 129-token chunk based in bucket 0 sits at 32 + 64 = 96, the
    // center of bucket 1: the decode step of 129 at a mean in bucket 1.
    const StepCost chunk = store.prefillStep(129, 0);
    const StepCost decode = store.decodeStep(129, kSeqBucket);
    EXPECT_EQ(store.stats().lookups, 2u);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(chunk.seconds, decode.seconds);
    // A fused iteration with no prefill is its decode step.
    store.mixedStep(129, 2 * kSeqBucket - 1, 0, 0);
    EXPECT_EQ(store.stats().lookups, 3u);
    EXPECT_EQ(store.stats().misses, 1u);
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
