/**
 * @file
 * Lightweight statistics: running accumulators, percentiles, and the
 * breakdowns used by the simulators to report the per-operation
 * latency/energy splits the paper's figures show.
 */

#ifndef PIMBA_CORE_STATS_H
#define PIMBA_CORE_STATS_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace pimba {

/** Running mean/min/max/variance accumulator (Welford). */
class Accumulator
{
  public:
    /** Record one sample. */
    void add(double x);

    uint64_t count() const { return n; }
    double mean() const { return n ? mu : 0.0; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    /** Population variance of the recorded samples. */
    double variance() const { return n ? m2 / static_cast<double>(n) : 0.0; }
    double sum() const { return total; }

  private:
    uint64_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    double total = 0.0;
};

/**
 * Categories of the step breakdowns, named after the paper's figure
 * legends: the seven operation classes of the latency breakdown
 * (Figs. 3 and 13) and the state-update/attention energy split of
 * Fig. 14. GEMM and Others appear in both breakdowns.
 */
enum class BreakdownKey : uint8_t
{
    StateUpdate,
    Attention,
    Discretization,
    CausalConv,
    GEMM,
    Communication,
    Others,
    StateUpdateIo,      ///< "State update (I/O)"
    StateUpdateCompute, ///< "State update (Compute)"
    AttentionIo,        ///< "Attention (I/O)"
    AttentionCompute,   ///< "Attention (Compute)"
};

inline constexpr size_t kBreakdownKeys = 11;

/** Figure-legend name of @p key. */
const char *breakdownKeyName(BreakdownKey key);

/**
 * Per-category breakdown (e.g. latency per operation class) over the
 * fixed BreakdownKey set.
 *
 * Categories keep insertion order so reports match the paper's legends.
 * total() sums them in byte-wise name order, whatever order they were
 * added in, which the golden reports pin to the last bit.
 */
class Breakdown
{
  public:
    /** Add @p value to category @p key, creating it if necessary. */
    void add(BreakdownKey key, double value);

    /** Value of @p key, or 0 if absent. */
    double get(BreakdownKey key) const
    {
        return has(key) ? values[index(key)] : 0.0;
    }

    /** Sum over all categories. */
    double total() const;

    /** Fraction of the total in @p key (0 if total is 0). */
    double fraction(BreakdownKey key) const;

    /** Categories in insertion order. */
    std::span<const BreakdownKey> keys() const
    {
        return {order.data(), count};
    }

    bool empty() const { return count == 0; }

  private:
    static size_t index(BreakdownKey key)
    {
        return static_cast<size_t>(key);
    }
    bool has(BreakdownKey key) const
    {
        return (present >> index(key)) & 1u;
    }

    std::array<double, kBreakdownKeys> values{};
    std::array<BreakdownKey, kBreakdownKeys> order{};
    uint8_t count = 0;
    uint16_t present = 0; ///< bit index(key) set once key is added
};

/**
 * Percentile of a sample set with linear interpolation between order
 * statistics. @p q is in [0, 100]; the samples need not be sorted.
 * Returns 0 for an empty sample set.
 */
double percentile(std::vector<double> samples, double q);

/** percentile() for samples already sorted ascending (no copy/sort). */
double percentileSorted(const std::vector<double> &sorted, double q);

} // namespace pimba

#endif // PIMBA_CORE_STATS_H
