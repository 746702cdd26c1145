#include "core/stats.h"

#include <algorithm>
#include <iterator>
#include <string_view>

namespace pimba {

void
Accumulator::add(double x)
{
    ++n;
    total += x;
    if (n == 1) {
        mu = lo = hi = x;
        m2 = 0.0;
        return;
    }
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    double delta = x - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (x - mu);
}

namespace {

constexpr const char *kBreakdownNames[] = {
    "StateUpdate",
    "Attention",
    "Discretization",
    "CausalConv",
    "GEMM",
    "Communication",
    "Others",
    "State update (I/O)",
    "State update (Compute)",
    "Attention (I/O)",
    "Attention (Compute)",
};
static_assert(std::size(kBreakdownNames) == kBreakdownKeys);

/** The keys in byte-wise name order: the order total() sums in. */
constexpr std::array<BreakdownKey, kBreakdownKeys> kNameOrder = [] {
    std::array<BreakdownKey, kBreakdownKeys> keys{};
    for (size_t i = 0; i < kBreakdownKeys; ++i)
        keys[i] = static_cast<BreakdownKey>(i);
    std::sort(keys.begin(), keys.end(), [](BreakdownKey a, BreakdownKey b) {
        return std::string_view(kBreakdownNames[static_cast<size_t>(a)]) <
               std::string_view(kBreakdownNames[static_cast<size_t>(b)]);
    });
    return keys;
}();

} // namespace

const char *
breakdownKeyName(BreakdownKey key)
{
    return kBreakdownNames[static_cast<size_t>(key)];
}

void
Breakdown::add(BreakdownKey key, double value)
{
    if (has(key)) {
        values[index(key)] += value;
        return;
    }
    present = static_cast<uint16_t>(present | (1u << index(key)));
    order[count++] = key;
    values[index(key)] = value;
}

double
Breakdown::total() const
{
    double sum = 0.0;
    for (BreakdownKey key : kNameOrder)
        if (has(key))
            sum += values[index(key)];
    return sum;
}

double
Breakdown::fraction(BreakdownKey key) const
{
    double t = total();
    return t > 0.0 ? get(key) / t : 0.0;
}

double
percentile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, q);
}

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    if (q <= 0.0)
        return sorted.front();
    if (q >= 100.0)
        return sorted.back();
    double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

} // namespace pimba
