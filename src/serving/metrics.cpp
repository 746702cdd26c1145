#include "serving/metrics.h"

#include <algorithm>

#include "core/stats.h"

namespace pimba {

LatencySummary
summarizeLatency(const std::vector<double> &samples)
{
    // Single pass over one sorted copy: the sort gives the percentiles
    // and the max for free, and the mean accumulates from the sorted
    // vector — this runs once per metric per grid point, so the
    // previous extra Welford walk over the unsorted samples was pure
    // overhead.
    LatencySummary s;
    if (samples.empty())
        return s;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (double x : sorted)
        sum += x;
    s.count = sorted.size();
    s.mean = sum / static_cast<double>(sorted.size());
    s.min = sorted.front();
    s.max = sorted.back();
    s.p50 = percentileSorted(sorted, 50.0);
    s.p95 = percentileSorted(sorted, 95.0);
    s.p99 = percentileSorted(sorted, 99.0);
    return s;
}

ServingMetrics
computeMetrics(const std::vector<CompletedRequest> &done, Seconds makespan,
               const SloConfig &slo)
{
    ServingMetrics m;
    m.requests = done.size();
    m.makespan = makespan;

    std::vector<double> ttft, tpot, latency, queueing, preemptions;
    ttft.reserve(done.size());
    tpot.reserve(done.size());
    latency.reserve(done.size());
    queueing.reserve(done.size());
    preemptions.reserve(done.size());
    uint64_t good = 0;
    for (const auto &c : done) {
        m.generatedTokens += c.req.outputLen;
        ttft.push_back(c.ttft.value());
        // Single-token requests have no inter-token gap; their tpot of
        // 0.0 would drag the TPOT percentiles down, so they are
        // excluded from the summary sample.
        if (c.req.outputLen > 1)
            tpot.push_back(c.tpot.value());
        latency.push_back(c.latency.value());
        queueing.push_back(c.queueing.value());
        preemptions.push_back(static_cast<double>(c.preemptions));
        // The SLO's TPOT clause is vacuous for a single-token request —
        // with no decode steps there is no inter-token time to violate —
        // so it is skipped *explicitly*, not by relying on the record's
        // incidental 0.0 sentinel passing the comparison.
        bool tpotOk = c.req.outputLen <= 1 || c.tpot <= slo.tpot;
        if (c.ttft <= slo.ttft && tpotOk)
            ++good;
    }
    m.sloViolations = m.requests - good;
    m.ttft = summarizeLatency(ttft);
    m.tpot = summarizeLatency(tpot);
    m.latency = summarizeLatency(latency);
    m.queueing = summarizeLatency(queueing);
    m.preemptions = summarizeLatency(preemptions);
    if (makespan > Seconds(0.0)) {
        m.tokensPerSec = Tokens(m.generatedTokens) / makespan;
        m.requestsPerSec = RequestsPerSecond(
            static_cast<double>(m.requests) / makespan.value());
        m.goodput = RequestsPerSecond(static_cast<double>(good) /
                                      makespan.value());
    }
    return m;
}

bool
sustainsSlo(const ServingMetrics &m, double fraction)
{
    if (m.requests == 0)
        return false;
    uint64_t good = m.requests - m.sloViolations;
    return static_cast<double>(good) >=
           fraction * static_cast<double>(m.requests);
}

StreamingMetrics::StreamingMetrics(SloConfig slo_, double accuracy)
    : slo(slo_), ttft(accuracy), tpot(accuracy), latency(accuracy),
      queueing(accuracy), preemptions(accuracy)
{}

void
StreamingMetrics::observe(const CompletedRequest &c)
{
    ++requests;
    generatedTokens += c.req.outputLen;
    ttft.add(c.ttft.value());
    // Same exclusion rule as computeMetrics(): single-token requests
    // have no inter-token gap and would skew TPOT toward zero.
    if (c.req.outputLen > 1)
        tpot.add(c.tpot.value());
    latency.add(c.latency.value());
    queueing.add(c.queueing.value());
    preemptions.add(static_cast<double>(c.preemptions));
    bool tpotOk = c.req.outputLen <= 1 || c.tpot <= slo.tpot;
    if (c.ttft <= slo.ttft && tpotOk)
        ++good;
    lastFinish = std::max(lastFinish, c.req.arrival + c.latency);
}

LatencySummary
summarizeSketch(const QuantileSketch &s)
{
    LatencySummary out;
    out.count = s.count();
    out.mean = s.mean();
    out.min = s.min();
    out.p50 = s.quantile(50.0);
    out.p95 = s.quantile(95.0);
    out.p99 = s.quantile(99.0);
    out.max = s.max();
    return out;
}

ServingMetrics
StreamingMetrics::finalize(Seconds makespan) const
{
    ServingMetrics m;
    m.requests = requests;
    m.generatedTokens = generatedTokens;
    m.makespan = makespan;
    m.sloViolations = requests - good;
    m.ttft = summarizeSketch(ttft);
    m.tpot = summarizeSketch(tpot);
    m.latency = summarizeSketch(latency);
    m.queueing = summarizeSketch(queueing);
    m.preemptions = summarizeSketch(preemptions);
    if (makespan > Seconds(0.0)) {
        m.tokensPerSec = Tokens(m.generatedTokens) / makespan;
        m.requestsPerSec = RequestsPerSecond(
            static_cast<double>(m.requests) / makespan.value());
        m.goodput = RequestsPerSecond(static_cast<double>(good) /
                                      makespan.value());
    }
    return m;
}

} // namespace pimba
