/**
 * @file
 * Streaming-metrics equivalence tests: the quantile-sketch pipeline
 * must reproduce the exact (vector-based) computeMetrics() output on a
 * real engine run — exact counts/means/rates, percentiles within 1% —
 * and an empty collector must finalize to zeros. These pin the
 * acceptance bound `--stream-metrics` is documented to hold
 * (docs/observability.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/trace.h"

namespace pimba {
namespace {

constexpr double kBudget = 0.01; // 1% relative equivalence budget

std::vector<CompletedRequest>
servingRun()
{
    // 512 requests: the sketch's own error is 0.1%, but it answers
    // the nearest-rank order statistic while percentileSorted()
    // interpolates between two — on a small, quantized population
    // (TPOT clusters at discrete step costs) that convention gap
    // alone can exceed 1%. A denser population keeps the target ranks
    // inside value clusters, which is also the regime the streaming
    // mode exists for (million-request replays).
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 24.0;
    tc.numRequests = 512;
    tc.lengths = LengthDistribution::Uniform;
    tc.inputLen = 64;
    tc.inputLenMax = 512;
    tc.outputLen = 16;
    tc.outputLenMax = 96;
    tc.seed = 4242;
    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    ServingEngine engine(sim, mamba2_2p7b(), {});
    return engine.run(generateTrace(tc)).completed;
}

void
expectWithinBudget(double streamed, double exact, const char *what)
{
    if (exact == 0.0) {
        EXPECT_EQ(streamed, 0.0) << what;
        return;
    }
    EXPECT_LE(std::abs(streamed - exact) / std::abs(exact), kBudget)
        << what << ": streamed=" << streamed << " exact=" << exact;
}

void
expectSummariesEquivalent(const LatencySummary &s,
                          const LatencySummary &e, const char *what)
{
    // Count, mean, min, and max are exact in the streaming pipeline.
    EXPECT_EQ(s.count, e.count) << what;
    EXPECT_DOUBLE_EQ(s.mean, e.mean) << what;
    EXPECT_DOUBLE_EQ(s.min, e.min) << what;
    EXPECT_DOUBLE_EQ(s.max, e.max) << what;
    expectWithinBudget(s.p50, e.p50, what);
    expectWithinBudget(s.p95, e.p95, what);
    expectWithinBudget(s.p99, e.p99, what);
}

TEST(StreamingMetrics, MatchesExactPipelineOnARealServingRun)
{
    std::vector<CompletedRequest> done = servingRun();
    ASSERT_GE(done.size(), 500u);
    Seconds makespan(20.0);
    SloConfig slo;

    ServingMetrics exact = computeMetrics(done, makespan, slo);
    StreamingMetrics collector(slo);
    for (const CompletedRequest &c : done)
        collector.observe(c);
    EXPECT_EQ(collector.observed(), done.size());
    ServingMetrics streamed = collector.finalize(makespan);

    // Exact members are bit-equal, not merely close.
    EXPECT_EQ(streamed.requests, exact.requests);
    EXPECT_EQ(streamed.generatedTokens, exact.generatedTokens);
    EXPECT_EQ(streamed.sloViolations, exact.sloViolations);
    EXPECT_DOUBLE_EQ(streamed.tokensPerSec.value(),
                     exact.tokensPerSec.value());
    EXPECT_DOUBLE_EQ(streamed.requestsPerSec.value(),
                     exact.requestsPerSec.value());
    EXPECT_DOUBLE_EQ(streamed.goodput.value(), exact.goodput.value());

    expectSummariesEquivalent(streamed.ttft, exact.ttft, "ttft");
    expectSummariesEquivalent(streamed.tpot, exact.tpot, "tpot");
    expectSummariesEquivalent(streamed.latency, exact.latency,
                              "latency");
    expectSummariesEquivalent(streamed.queueing, exact.queueing,
                              "queueing");
    expectSummariesEquivalent(streamed.preemptions, exact.preemptions,
                              "preemptions");
}

TEST(StreamingMetrics, EmptyCollectorFinalizesToZeros)
{
    StreamingMetrics collector;
    ServingMetrics m = collector.finalize(Seconds(5.0));
    EXPECT_EQ(m.requests, 0u);
    EXPECT_DOUBLE_EQ(m.tokensPerSec.value(), 0.0);
    EXPECT_DOUBLE_EQ(m.ttft.p99, 0.0);
    EXPECT_EQ(m.ttft.count, 0u);
}

} // namespace
} // namespace pimba
