#include "core/stats.h"

#include <algorithm>
#include <iterator>
#include <sstream>

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
Breakdown::get(std::string_view name) const
{
    for (size_t i = 0; i < kBreakdownKeys; ++i)
        if (name == kBreakdownNames[i])
            return get(static_cast<BreakdownKey>(i));
    return 0.0;
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
Breakdown::fraction(std::string_view name) const
{
    double t = total();
    return t > 0.0 ? get(name) / t : 0.0;
}

void
Breakdown::scale(double s)
{
    for (BreakdownKey key : keys())
        values[index(key)] *= s;
}

void
Breakdown::merge(const Breakdown &other)
{
    for (BreakdownKey key : other.keys())
        add(key, other.get(key));
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

MetricRegistry::Entry &
MetricRegistry::entry(const std::string &name, bool gauge)
{
    auto it = index.find(name);
    if (it == index.end()) {
        index.emplace(name, entries.size());
        order.push_back(name);
        entries.push_back(Entry{0.0, gauge});
        return entries.back();
    }
    return entries[it->second];
}

void
MetricRegistry::count(const std::string &name, double delta)
{
    entry(name, /*gauge=*/false).value += delta;
}

void
MetricRegistry::gauge(const std::string &name, double value)
{
    entry(name, /*gauge=*/true).value = value;
}

double
MetricRegistry::value(const std::string &name) const
{
    auto it = index.find(name);
    return it == index.end() ? 0.0 : entries[it->second].value;
}

bool
MetricRegistry::isGauge(const std::string &name) const
{
    auto it = index.find(name);
    return it != index.end() && entries[it->second].gauge;
}

void
MetricRegistry::merge(const MetricRegistry &other)
{
    for (size_t i = 0; i < other.order.size(); ++i) {
        const std::string &name = other.order[i];
        const Entry &theirs = other.entries[i];
        Entry &ours = entry(name, theirs.gauge);
        if (ours.gauge != theirs.gauge) {
            // Kind conflict: the incoming registry's kind wins
            // wholesale rather than mixing sum and max semantics.
            ours.gauge = theirs.gauge;
            ours.value = theirs.value;
            continue;
        }
        if (theirs.gauge)
            ours.value = std::max(ours.value, theirs.value);
        else
            ours.value += theirs.value;
    }
}

std::string
MetricRegistry::render() const
{
    std::ostringstream oss;
    for (size_t i = 0; i < order.size(); ++i) {
        oss << order[i] << " = " << entries[i].value;
        if (entries[i].gauge)
            oss << " (gauge)";
        oss << "\n";
    }
    return oss.str();
}

void
StatSet::inc(const std::string &name, double v)
{
    counters[name] += v;
}

void
StatSet::set(const std::string &name, double v)
{
    counters[name] = v;
}

double
StatSet::get(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
}

std::string
StatSet::dump() const
{
    std::ostringstream oss;
    for (const auto &kv : counters)
        oss << kv.first << " = " << kv.second << "\n";
    return oss.str();
}

void
StatSet::clear()
{
    counters.clear();
}

} // namespace pimba
