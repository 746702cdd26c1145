/**
 * @file
 * Streaming quantile sketch (DDSketch-style logarithmic buckets) for
 * the observability layer: percentile estimates with a bounded
 * *relative* error guarantee in O(buckets) memory, so metric pipelines
 * can stream per-request samples instead of buffering every one of
 * them (million-request replays).
 *
 * Guarantees, for a sketch built with relative accuracy alpha:
 *
 *  - quantile(q) returns a value within alpha relative error of some
 *    sample whose rank matches q's (rounded) order statistic — the
 *    same rank convention percentileSorted() interpolates around.
 *  - count/min/max/sum/mean are exact, not estimates.
 *  - Non-positive samples land in a dedicated zero bucket (per-request
 *    preemption counts are frequently zero) and report as 0.0.
 *
 * An empty sketch answers 0 for every statistic, never UB.
 */

#ifndef PIMBA_CORE_SKETCH_H
#define PIMBA_CORE_SKETCH_H

#include <cstdint>
#include <vector>

namespace pimba {

/** Streaming quantile sketch with bounded relative error. */
class QuantileSketch
{
  public:
    /** Default relative accuracy: 0.1%, comfortably inside the 1%
     *  equivalence budget the streaming-metrics mode is held to. */
    static constexpr double kDefaultAccuracy = 0.001;

    explicit QuantileSketch(double relativeAccuracy = kDefaultAccuracy);

    /** Record one sample. Non-positive samples count into the zero
     *  bucket (they have no logarithm) and surface as 0.0. */
    void add(double x);

    /**
     * Estimate the @p q-th percentile, @p q in [0, 100]. The estimate
     * targets the order statistic percentileSorted() interpolates
     * around (rank q/100 * (count-1), rounded to the nearest sample)
     * and is clamped into [min, max]. Returns 0 when empty.
     */
    double quantile(double q) const;

    uint64_t count() const { return n; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double sum() const { return total; }
    double mean() const { return n ? total / static_cast<double>(n) : 0.0; }
    double relativeAccuracy() const { return alpha; }
    bool empty() const { return n == 0; }

  private:
    int32_t bucketIndex(double x) const;

    double alpha;    ///< guaranteed relative accuracy
    double gamma;    ///< bucket base, (1 + alpha) / (1 - alpha)
    double lnGamma;  ///< cached log(gamma)
    uint64_t n = 0;
    uint64_t zeroCount = 0; ///< samples <= 0
    double lo = 0.0;
    double hi = 0.0;
    double total = 0.0;
    /** counts[i] holds bucket (base + i): samples in
     *  (gamma^(base+i-1), gamma^(base+i)]. Contiguous, grown on
     *  demand toward whichever side a new sample lands. */
    std::vector<uint64_t> counts;
    int32_t base = 0;
};

} // namespace pimba

#endif // PIMBA_CORE_SKETCH_H
