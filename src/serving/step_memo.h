/**
 * @file
 * Bucket and key math of the serving engine's step-cost memo, shared
 * between the engine and the tests that pin bucket-boundary behavior.
 *
 * The memo quantizes every cache position a step takes (the decode
 * mean, a prefill chunk's base, both means of a fused iteration) to
 * kSeqBucket-wide buckets and evaluates the model at the bucket
 * *center*, so rate sweeps cost O(distinct buckets) model walks instead
 * of O(iterations). That is an approximation: attention cost grows with
 * cache length but is not affine in it. GPU attention traffic is; the
 * PIM attention kernels are step functions of the cache length (whole
 * DRAM rows and passes). step_memo_test.cpp pins the whole-step error
 * of a decode step costed at its bucket center: at most 14% (GPU,
 * OPT-7B, batch 128, cache length 0), at most 11% past the first
 * bucket, and zero for models without attention. Every step kind uses
 * the same bucketing so their costs stay comparable.
 *
 * After bucketing, each step reduces to the one generationStep call it
 * is costed as (StepPoint), and that call is the memo key: equal keys
 * are equal calls, so one memo serves every step kind exactly.
 */

#ifndef PIMBA_SERVING_STEP_MEMO_H
#define PIMBA_SERVING_STEP_MEMO_H

#include <cstdint>

#include "core/logging.h"
#include "sim/serving_sim.h"

namespace pimba {

/// Cache-length bucket width of the step memo.
inline constexpr uint64_t kSeqBucket = 64;

/// Bucket index of cache position @p seq: [0, 64) -> 0, [64, 128) -> 1…
constexpr uint64_t
seqBucket(uint64_t seq)
{
    return seq / kSeqBucket;
}

/// Evaluation point of @p seq's bucket: its center, used uniformly by
/// every step kind.
constexpr uint64_t
bucketCenter(uint64_t seq)
{
    return seqBucket(seq) * kSeqBucket + kSeqBucket / 2;
}

/// Largest cache position the step memo key holds (32 bits).
inline constexpr uint64_t kMemoMaxPosition = (1ull << 32) - 1;

/// Step memo key of the generationStep call at @p p: tokens in the high
/// 32 bits, the cache position in the low 32. A planned step has
/// tokens >= 1, so key 0 is unreachable, which is what lets the engine
/// store the memo in FlatTable with 0 as the empty sentinel.
inline uint64_t
stepMemoKey(StepPoint p)
{
    PIMBA_ASSERT(p.tokens >= 1 && p.position <= kMemoMaxPosition,
                 "step memo key overflow: ", p.tokens, " tokens at ",
                 p.position);
    return (static_cast<uint64_t>(p.tokens) << 32) | p.position;
}

} // namespace pimba

#endif // PIMBA_SERVING_STEP_MEMO_H
