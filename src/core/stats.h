/**
 * @file
 * Lightweight statistics collection: named scalar counters, running
 * accumulators, and the breakdowns used by the simulators to report the
 * per-operation latency/energy splits the paper's figures show.
 */

#ifndef PIMBA_CORE_STATS_H
#define PIMBA_CORE_STATS_H

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
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
    double stddev() const { return std::sqrt(variance()); }
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

    /** Value of the category named @p name, or 0 if absent or not a
     *  legend name. */
    double get(std::string_view name) const;

    /** Sum over all categories. */
    double total() const;

    /** Fraction of the total in @p key (0 if total is 0). */
    double fraction(BreakdownKey key) const;
    double fraction(std::string_view name) const;

    /** Categories in insertion order. */
    std::span<const BreakdownKey> keys() const
    {
        return {order.data(), count};
    }

    /** Scale every category by @p s (e.g. per-token normalization). */
    void scale(double s);

    /** Merge another breakdown into this one. */
    void merge(const Breakdown &other);

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

/**
 * Mergeable counter/gauge registry for the streaming-metrics layer.
 *
 * Counters are monotonic sums (merge adds), gauges are
 * last-write-wins samples of instantaneous state (merge keeps the
 * larger magnitude as the fleet-wide high-water mark). Names keep
 * insertion order so rendered registries diff cleanly across runs.
 * Unlike StatSet this is built to be carried per-replica and folded
 * into one fleet-wide registry without re-walking sample vectors.
 */
class MetricRegistry
{
  public:
    /** Add @p delta to the named counter, creating it at 0. */
    void count(const std::string &name, double delta = 1.0);

    /** Overwrite the named gauge (instantaneous sample). */
    void gauge(const std::string &name, double value);

    /** Current value of a counter or gauge (0 if never touched). */
    double value(const std::string &name) const;

    /** True when @p name was registered as a gauge. */
    bool isGauge(const std::string &name) const;

    /** Fold @p other in: counters sum, gauges keep the max. A name
     *  must not be a counter in one registry and a gauge in the
     *  other. */
    void merge(const MetricRegistry &other);

    /** "name = value" lines, insertion order, gauges marked. */
    std::string render() const;

    /** Registered names in insertion order. */
    const std::vector<std::string> &names() const { return order; }

    bool empty() const { return order.empty(); }

  private:
    struct Entry
    {
        double value = 0.0;
        bool gauge = false;
    };
    Entry &entry(const std::string &name, bool gauge);

    std::map<std::string, size_t> index;
    std::vector<std::string> order;
    std::vector<Entry> entries;
};

/** Registry of named scalar statistics with dump support. */
class StatSet
{
  public:
    /** Add @p v to the named counter. */
    void inc(const std::string &name, double v = 1.0);

    /** Overwrite the named counter. */
    void set(const std::string &name, double v);

    /** Read a counter (0 if never touched). */
    double get(const std::string &name) const;

    /** Render "name = value" lines. */
    std::string dump() const;

    /** Reset all counters to zero. */
    void clear();

  private:
    std::map<std::string, double> counters;
};

} // namespace pimba

#endif // PIMBA_CORE_STATS_H
