/**
 * @file
 * Metric-aggregation tests, in particular the TPOT sampling rule:
 * single-token requests have no inter-token gap, must not drag the
 * TPOT percentiles toward zero, and still count as (trivially)
 * TPOT-compliant for the SLO; and the sustainsSlo boundary the
 * saturation and planner searches rely on.
 */

#include <gtest/gtest.h>

#include "serving/metrics.h"

namespace pimba {
namespace {

CompletedRequest
completed(uint64_t output_len, double ttft, double tpot, double latency)
{
    CompletedRequest c;
    c.req.outputLen = output_len;
    c.ttft = Seconds(ttft);
    c.tpot = Seconds(tpot);
    c.latency = Seconds(latency);
    return c;
}

TEST(ServingMetricsAgg, SingleTokenRequestsExcludedFromTpotSummary)
{
    // Three multi-token requests at 10 ms TPOT, three single-token
    // requests whose tpot is 0.0 by construction.
    std::vector<CompletedRequest> done;
    for (int i = 0; i < 3; ++i)
        done.push_back(completed(16, 0.2, 0.010, 0.5));
    for (int i = 0; i < 3; ++i)
        done.push_back(completed(1, 0.2, 0.0, 0.2));

    SloConfig slo; // ttft 1.0 s, tpot 20 ms
    ServingMetrics m = computeMetrics(done, Seconds(10.0), slo);

    // The summary reflects only the requests that actually decoded:
    // with zero-tpot singletons included, the p50 would be 0.0.
    EXPECT_DOUBLE_EQ(m.tpot.p50, 0.010);
    EXPECT_DOUBLE_EQ(m.tpot.mean, 0.010);
    EXPECT_DOUBLE_EQ(m.tpot.max, 0.010);
    // Single-token requests still count for the SLO (trivially
    // compliant on TPOT) and for throughput.
    EXPECT_EQ(m.sloViolations, 0u);
    EXPECT_EQ(m.requests, 6u);
    EXPECT_EQ(m.generatedTokens, 3u * 16u + 3u);
}

TEST(ServingMetricsAgg, AllSingleTokenRequestsYieldEmptyTpotSummary)
{
    std::vector<CompletedRequest> done = {completed(1, 0.1, 0.0, 0.1),
                                          completed(1, 0.3, 0.0, 0.3)};
    ServingMetrics m = computeMetrics(done, Seconds(1.0), SloConfig{});
    EXPECT_DOUBLE_EQ(m.tpot.p50, 0.0);
    EXPECT_DOUBLE_EQ(m.tpot.p95, 0.0);
    EXPECT_DOUBLE_EQ(m.tpot.max, 0.0);
    EXPECT_DOUBLE_EQ(m.ttft.p50, 0.2); // TTFT summary still populated
}

TEST(ServingMetricsAgg, EmptySamplesSummarizeToZeros)
{
    // A saturated replica that completes zero requests must report
    // zeros, not UB.
    LatencySummary s = summarizeLatency({});
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
    EXPECT_DOUBLE_EQ(s.p50, 0.0);
    EXPECT_DOUBLE_EQ(s.p95, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 0.0);
    EXPECT_DOUBLE_EQ(s.max, 0.0);

    ServingMetrics m = computeMetrics({}, Seconds(5.0), SloConfig{});
    EXPECT_EQ(m.requests, 0u);
    EXPECT_EQ(m.generatedTokens, 0u);
    EXPECT_DOUBLE_EQ(m.tokensPerSec.value(), 0.0);
    EXPECT_DOUBLE_EQ(m.goodput.value(), 0.0);
    EXPECT_DOUBLE_EQ(m.ttft.p99, 0.0);
    EXPECT_DOUBLE_EQ(m.queueing.p95, 0.0);
    EXPECT_DOUBLE_EQ(m.preemptions.max, 0.0);
}

TEST(ServingMetricsAgg, SummariesCarryExactCountAndMin)
{
    // count says how large the population behind the percentiles is
    // (the TPOT exclusion rule makes it differ from m.requests), and
    // min anchors the distribution's other end.
    std::vector<CompletedRequest> done;
    for (int i = 1; i <= 5; ++i)
        done.push_back(completed(16, 0.1 * i, 0.002 * i, 0.2 * i));
    done.push_back(completed(1, 0.05, 0.0, 0.05)); // single token

    ServingMetrics m = computeMetrics(done, Seconds(5.0), SloConfig{});
    EXPECT_EQ(m.ttft.count, 6u);
    EXPECT_EQ(m.latency.count, 6u);
    EXPECT_EQ(m.tpot.count, 5u); // singleton excluded
    EXPECT_DOUBLE_EQ(m.ttft.min, 0.05);
    EXPECT_DOUBLE_EQ(m.tpot.min, 0.002);
    EXPECT_DOUBLE_EQ(m.latency.min, 0.05);
}

TEST(ServingMetricsAgg, QueueingAndPreemptionPercentilesSurfaced)
{
    std::vector<CompletedRequest> done;
    for (int i = 0; i < 4; ++i) {
        CompletedRequest c = completed(8, 0.2, 0.01, 0.5);
        c.queueing = Seconds(0.1 * (i + 1)); // 0.1 .. 0.4
        c.preemptions = static_cast<uint64_t>(i); // 0 .. 3
        done.push_back(c);
    }
    ServingMetrics m = computeMetrics(done, Seconds(2.0), SloConfig{});
    EXPECT_DOUBLE_EQ(m.queueing.mean, 0.25);
    EXPECT_DOUBLE_EQ(m.queueing.max, 0.4);
    EXPECT_DOUBLE_EQ(m.queueing.p50, 0.25);
    EXPECT_DOUBLE_EQ(m.preemptions.max, 3.0);
    EXPECT_DOUBLE_EQ(m.preemptions.mean, 1.5);
}

TEST(ServingMetricsAgg, SloViolationsCountTtftAndTpotMisses)
{
    SloConfig slo;
    slo.ttft = Seconds(0.5);
    slo.tpot = Seconds(0.02);
    std::vector<CompletedRequest> done = {
        completed(8, 0.1, 0.010, 0.2), // compliant
        completed(8, 0.9, 0.010, 1.0), // TTFT miss
        completed(8, 0.1, 0.050, 0.6), // TPOT miss
        completed(1, 0.1, 0.0, 0.1),   // single token, compliant
    };
    ServingMetrics m = computeMetrics(done, Seconds(2.0), slo);
    EXPECT_EQ(m.sloViolations, 2u);
    EXPECT_DOUBLE_EQ(m.goodput.value(), 1.0); // 2 good / 2 s makespan
}

TEST(ServingMetricsAgg, SingleTokenTpotIsVacuousRegardlessOfStoredValue)
{
    // The goodput rule must skip the TPOT clause for outputLen <= 1
    // *explicitly*, not by assuming c.tpot == 0.0 for singletons: a
    // sentinel (or garbage) tpot on a single-token record must not
    // flip its SLO verdict in either direction.
    SloConfig slo;
    slo.ttft = Seconds(0.5);
    slo.tpot = Seconds(0.02);
    std::vector<CompletedRequest> done = {
        // Single token, TTFT good, absurd tpot value: still good.
        completed(1, 0.1, 99.0, 0.1),
        // Single token, TTFT miss: bad (TTFT clause still applies).
        completed(1, 0.9, 0.0, 0.9),
        // Two tokens: the TPOT clause is live again.
        completed(2, 0.1, 0.050, 0.2),
    };
    ServingMetrics m = computeMetrics(done, Seconds(2.0), slo);
    EXPECT_EQ(m.sloViolations, 2u);
    // only the first request is good
    EXPECT_DOUBLE_EQ(m.goodput.value(), 0.5);
}

TEST(ServingMetricsAgg, SustainsSloAtExactlyTheFraction)
{
    // The saturation and planner searches test against sustainsSlo:
    // exactly the required fraction of SLO-meeting completions passes,
    // one good request fewer fails, and a run that completed nothing
    // sustains nothing, whatever the fraction.
    ServingMetrics m;
    m.requests = 20;
    m.sloViolations = 1; // 19 of 20 good: exactly 95%
    EXPECT_TRUE(sustainsSlo(m, 0.95));
    EXPECT_TRUE(sustainsSlo(m)); // 0.95 is the default
    m.sloViolations = 2; // 18 of 20
    EXPECT_FALSE(sustainsSlo(m, 0.95));

    ServingMetrics none;
    EXPECT_FALSE(sustainsSlo(none, 0.95));
    EXPECT_FALSE(sustainsSlo(none, 0.0));
}

} // namespace
} // namespace pimba
