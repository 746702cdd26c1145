/**
 * @file
 * Replay tests. A lazy arrival source must drive the pump to the same
 * report, bit for bit, as the materialized trace. Bounded-memory
 * replay (Fleet::runStreamed) must agree with the record-retaining run
 * on everything exact (counts, tokens, goodput, makespan, transfers),
 * keep its sketch percentiles within the 1% agreement bound, retain no
 * per-request state in the report, and leave the fleet reusable — on
 * colocated and disaggregated fleets alike.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "bit_equal.h"
#include "cluster/fleet.h"
#include "presets.h"
#include "serving/trace.h"

namespace pimba {
namespace {

/** |a - b| relative to max(|a|, |b|); 0 when both are 0. */
double
relDiff(double a, double b)
{
    double scale = std::max(std::fabs(a), std::fabs(b));
    return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
}

TraceConfig
replayTraceConfig(int n)
{
    TraceConfig cfg;
    cfg.arrivals = ArrivalProcess::Diurnal;
    cfg.ratePerSec = 24.0;
    cfg.diurnal.period = Seconds(30.0);
    cfg.diurnal.peakToTrough = 3.0;
    cfg.lengths = LengthDistribution::Uniform;
    cfg.inputLen = 256;
    cfg.inputLenMax = 768;
    cfg.outputLen = 128;
    cfg.outputLenMax = 384;
    cfg.numRequests = n;
    cfg.seed = 0x5EEDC0DEu;
    return cfg;
}

TEST(EventEquivalence, StreamedSourceMatchesMaterializedRun)
{
    // run(ArrivalSource&) must agree with run(vector): the lazy pull
    // path and the sorted-copy path drive the same calendar.
    const auto sc = preset<FleetScenario>("cluster_routers.json",
                                          /*smoke=*/true);
    const FleetConfig &fc = sc.cases.front().fleet;
    const FleetReport fromVector =
        Fleet(sc.model, fc).run(generateTrace(sc.trace));
    ArrivalStream stream(sc.trace);
    expectBitEqual(fromVector, Fleet(sc.model, fc).run(stream));
}

TEST(FleetReplay, StreamedRunMatchesExactRun)
{
    TraceConfig tc = replayTraceConfig(600);
    ModelConfig model = mamba2_2p7b();
    const FleetConfig disaggregatedFleet =
        presetCase(preset<FleetScenario>("cluster_disaggregation.json"),
                   "2p+2d NVLink (A100)");
    for (const FleetConfig &fc : {pimbaJsqFleet(2), disaggregatedFleet}) {
        const bool disaggregated = fc.mode == FleetMode::Disaggregated;
        SCOPED_TRACE(disaggregated ? "disaggregated" : "colocated");
        FleetReport exact = Fleet(model, fc).run(generateTrace(tc));

        Fleet fleet(model, fc);
        StreamingMetrics stream(fc.slo);
        ArrivalStream arrivals(tc);
        FleetReport streamed = fleet.runStreamed(arrivals, stream);

        // Exact fields agree exactly.
        EXPECT_EQ(streamed.metrics.requests, exact.metrics.requests);
        EXPECT_EQ(streamed.metrics.generatedTokens,
                  exact.metrics.generatedTokens);
        EXPECT_EQ(streamed.metrics.sloViolations,
                  exact.metrics.sloViolations);
        EXPECT_DOUBLE_EQ(streamed.makespan.value(),
                         exact.makespan.value());
        EXPECT_DOUBLE_EQ(streamed.metrics.goodput.value(),
                         exact.metrics.goodput.value());
        EXPECT_DOUBLE_EQ(streamed.metrics.tokensPerSec.value(),
                         exact.metrics.tokensPerSec.value());
        EXPECT_EQ(streamed.load.requestsPerReplica,
                  exact.load.requestsPerReplica);
        EXPECT_EQ(streamed.transfer.transfers, exact.transfer.transfers);
        EXPECT_EQ(streamed.transfer.totalBytes.value(),
                  exact.transfer.totalBytes.value());
        EXPECT_EQ(streamed.transfer.perTransfer.count,
                  exact.transfer.perTransfer.count);
        EXPECT_EQ(disaggregated, exact.transfer.transfers > 0);

        // Sketch percentiles stay within the pinned 1% agreement bound.
        EXPECT_LE(
            relDiff(streamed.metrics.ttft.p50, exact.metrics.ttft.p50),
            0.01);
        EXPECT_LE(
            relDiff(streamed.metrics.ttft.p95, exact.metrics.ttft.p95),
            0.01);
        EXPECT_LE(
            relDiff(streamed.metrics.tpot.p95, exact.metrics.tpot.p95),
            0.01);
        EXPECT_LE(relDiff(streamed.metrics.latency.p99,
                          exact.metrics.latency.p99),
                  0.01);
        EXPECT_LE(relDiff(streamed.transfer.perTransfer.p95,
                          exact.transfer.perTransfer.p95),
                  0.01);
        EXPECT_NEAR(streamed.transfer.meanTtftShare,
                    exact.transfer.meanTtftShare, 1e-12);

        // Bounded memory means no per-request retention anywhere.
        EXPECT_TRUE(streamed.completed.empty());
        EXPECT_TRUE(streamed.assignments.empty());
        for (const ServingReport &r : streamed.replicas) {
            EXPECT_TRUE(r.completed.empty());
            EXPECT_GT(r.completedRequests, 0u);
        }
        EXPECT_EQ(stream.observed(), exact.metrics.requests);
    }
}

TEST(FleetReplay, FleetIsReusableAfterStreamedRun)
{
    // runStreamed grafts streaming observers onto the replica engines;
    // they must be restored so a later exact run retains records again.
    TraceConfig tc = replayTraceConfig(200);
    ModelConfig model = mamba2_2p7b();
    FleetConfig fc = pimbaJsqFleet(2);
    auto trace = generateTrace(tc);

    Fleet fleet(model, fc);
    FleetReport before = fleet.run(trace);

    StreamingMetrics stream(fc.slo);
    ArrivalStream arrivals(tc);
    fleet.runStreamed(arrivals, stream);

    FleetReport after = fleet.run(trace);
    EXPECT_EQ(after.assignments, before.assignments);
    EXPECT_EQ(after.completed.size(), before.completed.size());
    EXPECT_DOUBLE_EQ(after.makespan.value(), before.makespan.value());
    EXPECT_DOUBLE_EQ(after.metrics.ttft.p95, before.metrics.ttft.p95);
}

TEST(FleetReplay, StreamedCountersAreExactUnderLoad)
{
    // At a rate above fleet capacity requests queue and complete out of
    // arrival order; the streamed counters must still account for every
    // request exactly.
    TraceConfig tc = replayTraceConfig(400);
    tc.arrivals = ArrivalProcess::Mmpp;
    tc.mmpp.burstMultiplier = 6.0;
    tc.mmpp.burstMean = Seconds(2.0);
    tc.mmpp.idleMean = Seconds(8.0);
    ModelConfig model = mamba2_2p7b();
    FleetConfig fc = pimbaJsqFleet(2);

    Fleet fleet(model, fc);
    StreamingMetrics stream(fc.slo);
    ArrivalStream arrivals(tc);
    FleetReport rep = fleet.runStreamed(arrivals, stream);
    EXPECT_EQ(rep.metrics.requests, 400u);
    EXPECT_EQ(stream.observed(), 400u);
    uint64_t perReplica = 0;
    for (const ServingReport &r : rep.replicas)
        perReplica += r.completedRequests;
    EXPECT_EQ(perReplica, 400u);
}

} // namespace
} // namespace pimba
