#include "core/sketch.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace pimba {

QuantileSketch::QuantileSketch(double relativeAccuracy)
    : alpha(relativeAccuracy)
{
    PIMBA_ASSERT(alpha > 0.0 && alpha < 1.0,
                 "sketch relative accuracy must be in (0, 1), got ",
                 alpha);
    gamma = (1.0 + alpha) / (1.0 - alpha);
    lnGamma = std::log(gamma);
}

int32_t
QuantileSketch::bucketIndex(double x) const
{
    // Bucket i covers (gamma^(i-1), gamma^i]; ceil puts an exact power
    // of gamma into its own bucket's upper edge.
    return static_cast<int32_t>(std::ceil(std::log(x) / lnGamma));
}

void
QuantileSketch::add(double x)
{
    ++n;
    total += x;
    if (n == 1) {
        lo = hi = x;
    } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    if (!(x > 0.0)) {
        // Non-positive (or NaN) samples have no log bucket. Latency
        // populations are non-negative by construction; preemption
        // counts are frequently exactly zero.
        ++zeroCount;
        return;
    }
    int32_t idx = bucketIndex(x);
    if (counts.empty()) {
        base = idx;
        counts.push_back(1);
        return;
    }
    if (idx < base) {
        counts.insert(counts.begin(),
                      static_cast<size_t>(base - idx), 0);
        base = idx;
    } else if (idx >= base + static_cast<int32_t>(counts.size())) {
        counts.resize(static_cast<size_t>(idx - base) + 1, 0);
    }
    ++counts[static_cast<size_t>(idx - base)];
}

double
QuantileSketch::quantile(double q) const
{
    if (n == 0)
        return 0.0;
    if (q <= 0.0)
        return min();
    if (q >= 100.0)
        return max();
    // Target the order statistic percentileSorted() interpolates
    // around: zero-based rank q/100 * (n - 1), rounded to the nearest
    // whole sample.
    double rank = q / 100.0 * static_cast<double>(n - 1);
    uint64_t target = static_cast<uint64_t>(std::llround(rank));
    if (target < zeroCount)
        return 0.0;
    uint64_t cum = zeroCount;
    for (size_t i = 0; i < counts.size(); ++i) {
        cum += counts[i];
        if (cum > target) {
            int32_t idx = base + static_cast<int32_t>(i);
            // Bucket midpoint 2 * gamma^idx / (gamma + 1): within
            // alpha relative error of every sample in the bucket.
            double est = 2.0 * std::exp(static_cast<double>(idx) *
                                        lnGamma) /
                         (gamma + 1.0);
            return std::clamp(est, lo, hi);
        }
    }
    return max();
}

} // namespace pimba
