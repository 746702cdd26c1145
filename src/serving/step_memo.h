/**
 * @file
 * Bucket and key math of the serving engine's step-cost memos, shared
 * between the engine and the tests that pin bucket-boundary behavior.
 *
 * The memos quantize the cache position to kSeqBucket-wide buckets and
 * evaluate the model at the bucket *center*, so rate sweeps cost
 * O(distinct buckets) model walks instead of O(iterations). That is an
 * approximation: attention cost grows with cache length but is not
 * affine in it. GPU attention traffic is; the PIM attention kernels are
 * step functions of the cache length (whole DRAM rows and passes).
 * step_memo_test.cpp pins the whole-step error of a decode step costed
 * at its bucket center: at most 14% (GPU, OPT-7B, batch 128, cache
 * length 0), at most 11% past the first bucket, and zero for models
 * without attention. All three memos (decode, prefill, fused) use the
 * same bucketing so their costs stay comparable.
 *
 * Every key packer leaves key 0 unreachable (the batch / chunk / token
 * fields are >= 1 in any planned iteration), which is what lets the
 * engine store the memos in FlatTable with 0 as the empty sentinel.
 */

#ifndef PIMBA_SERVING_STEP_MEMO_H
#define PIMBA_SERVING_STEP_MEMO_H

#include <cstdint>

namespace pimba {

/// Cache-length bucket width of the step memos.
inline constexpr uint64_t kSeqBucket = 64;

/// Bucket index of cache position @p seq: [0, 64) -> 0, [64, 128) -> 1…
constexpr uint64_t
seqBucket(uint64_t seq)
{
    return seq / kSeqBucket;
}

/// Evaluation point of @p seq's bucket: its center, used uniformly by
/// the decode, prefill, and fused memos.
constexpr uint64_t
bucketCenter(uint64_t seq)
{
    return seqBucket(seq) * kSeqBucket + kSeqBucket / 2;
}

/// Decode memo key: (batch, cache-length bucket). batch >= 1 keeps the
/// key nonzero.
constexpr uint64_t
decodeMemoKey(int batch, uint64_t mean_seq)
{
    return (static_cast<uint64_t>(batch) << 32) | seqBucket(mean_seq);
}

/// Prefill memo key: (chunk tokens, base-position bucket). chunk >= 1
/// keeps the key nonzero.
constexpr uint64_t
prefillMemoKey(uint64_t chunk, uint64_t seq_pos)
{
    return (chunk << 32) | seqBucket(seq_pos);
}

/// Field bounds of the fused-iteration memo key (checked by the engine
/// at use and by validateEngineConfig up front for the Sarathi policy).
inline constexpr uint64_t kMixedMaxBatch = 1ull << 12;
inline constexpr uint64_t kMixedMaxPrefillTokens = 1ull << 16;
inline constexpr uint64_t kMixedMaxBucket = 1ull << 18;

/// Fused memo key: (decode batch, prefill tokens, decode bucket,
/// prefill bucket). A planned fused iteration has decode_batch +
/// prefill_tokens >= 1, so the key is nonzero. Callers must check the
/// kMixed* bounds first.
constexpr uint64_t
mixedMemoKey(int decode_batch, uint64_t decode_seq,
             uint64_t prefill_tokens, uint64_t prefill_pos)
{
    return (static_cast<uint64_t>(decode_batch) << 52) |
           (prefill_tokens << 36) | (seqBucket(decode_seq) << 18) |
           seqBucket(prefill_pos);
}

} // namespace pimba

#endif // PIMBA_SERVING_STEP_MEMO_H
