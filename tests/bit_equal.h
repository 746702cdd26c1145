/**
 * @file
 * Bit-exact report comparison for the tests that pin two runs as the
 * same simulation: traced against untraced (and so the per-iteration
 * path against the engine's quiet-run fast path), a round-robin fleet
 * against standalone engines, a streamed source against a materialized
 * trace. Doubles compare by their bit patterns, not by
 * EXPECT_DOUBLE_EQ's 4-ulp window, so a reordered floating-point sum
 * fails. RecordingSink keeps the records of a session begun with a
 * sink, which keeps none in its report, for such comparisons.
 */

#ifndef PIMBA_TESTS_BIT_EQUAL_H
#define PIMBA_TESTS_BIT_EQUAL_H

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "cluster/fleet.h"
#include "serving/engine.h"

namespace pimba {

/// The bit pattern of @p v.
inline uint64_t
bitsOf(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/// Keeps every record a session hands it, in arrival order at the sink.
struct RecordingSink final : CompletionSink
{
    void observe(const CompletedRequest &c) override { seen.push_back(c); }
    std::vector<CompletedRequest> seen;
};

/// EXPECT that doubles @p a and @p b have the same bits.
inline void
expectSameBits(double a, double b, const char *what)
{
    EXPECT_EQ(bitsOf(a), bitsOf(b)) << what << ": " << a << " vs " << b;
}

inline void
expectBitEqual(const LatencySummary &a, const LatencySummary &b,
               const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.count, b.count);
    expectSameBits(a.mean, b.mean, "mean");
    expectSameBits(a.min, b.min, "min");
    expectSameBits(a.p50, b.p50, "p50");
    expectSameBits(a.p95, b.p95, "p95");
    expectSameBits(a.p99, b.p99, "p99");
    expectSameBits(a.max, b.max, "max");
}

inline void
expectBitEqual(const ServingMetrics &a, const ServingMetrics &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    expectSameBits(a.makespan.value(), b.makespan.value(),
                   "metrics.makespan");
    expectSameBits(a.tokensPerSec.value(), b.tokensPerSec.value(),
                   "tokensPerSec");
    expectSameBits(a.requestsPerSec.value(), b.requestsPerSec.value(),
                   "requestsPerSec");
    expectSameBits(a.goodput.value(), b.goodput.value(), "goodput");
    EXPECT_EQ(a.sloViolations, b.sloViolations);
    EXPECT_EQ(a.cancelledRequests, b.cancelledRequests);
    EXPECT_EQ(a.wastedTokens, b.wastedTokens);
    expectBitEqual(a.ttft, b.ttft, "ttft");
    expectBitEqual(a.tpot, b.tpot, "tpot");
    expectBitEqual(a.latency, b.latency, "latency");
    expectBitEqual(a.queueing, b.queueing, "queueing");
    expectBitEqual(a.preemptions, b.preemptions, "preemptions");
}

inline void
expectBitEqual(const std::vector<CompletedRequest> &a,
               const std::vector<CompletedRequest> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("completion " + std::to_string(i));
        const Request &x = a[i].req, &y = b[i].req;
        EXPECT_EQ(x.id, y.id);
        expectSameBits(x.arrival.value(), y.arrival.value(), "arrival");
        EXPECT_EQ(x.inputLen, y.inputLen);
        EXPECT_EQ(x.outputLen, y.outputLen);
        EXPECT_EQ(x.classId, y.classId);
        EXPECT_EQ(x.prefixLen, y.prefixLen);
        expectSameBits(a[i].ttft.value(), b[i].ttft.value(), "ttft");
        expectSameBits(a[i].tpot.value(), b[i].tpot.value(), "tpot");
        expectSameBits(a[i].latency.value(), b[i].latency.value(),
                       "latency");
        expectSameBits(a[i].queueing.value(), b[i].queueing.value(),
                       "queueing");
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
    }
}

/// Every simulated field of two engine reports. fastForwardedIterations
/// is left out: it counts how the simulator got there, and differs by
/// design between a traced and an untraced run.
inline void
expectBitEqual(const ServingReport &a, const ServingReport &b)
{
    expectBitEqual(a.completed, b.completed);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.cancelledRequests, b.cancelledRequests);
    EXPECT_EQ(a.wastedTokens, b.wastedTokens);
    expectBitEqual(a.metrics, b.metrics);
    expectSameBits(a.makespan.value(), b.makespan.value(), "makespan");
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.prefillChunks, b.prefillChunks);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recomputedTokens, b.recomputedTokens);
    expectSameBits(a.peakMemory.value(), b.peakMemory.value(),
                   "peakMemory");
    expectSameBits(a.memoryBudget.value(), b.memoryBudget.value(),
                   "memoryBudget");
    EXPECT_EQ(a.peakBatch, b.peakBatch);
    EXPECT_EQ(a.totalBlocks, b.totalBlocks);
    expectSameBits(a.peakBlockUtil, b.peakBlockUtil, "peakBlockUtil");
    expectSameBits(a.avgBlockUtil, b.avgBlockUtil, "avgBlockUtil");
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.executionMode, b.executionMode);
}

/// Every simulated field of two fleet reports, each replica's included.
inline void
expectBitEqual(const FleetReport &a, const FleetReport &b)
{
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.router, b.router);
    EXPECT_EQ(a.assignments, b.assignments);
    expectBitEqual(a.completed, b.completed);
    expectBitEqual(a.metrics, b.metrics);
    expectSameBits(a.makespan.value(), b.makespan.value(),
                   "fleet makespan");
    EXPECT_EQ(a.load.requestsPerReplica, b.load.requestsPerReplica);
    EXPECT_EQ(a.load.tokensPerReplica, b.load.tokensPerReplica);
    EXPECT_EQ(a.transfer.transfers, b.transfer.transfers);
    expectSameBits(a.transfer.totalBytes.value(),
                   b.transfer.totalBytes.value(), "transfer bytes");
    expectSameBits(a.transfer.totalSeconds.value(),
                   b.transfer.totalSeconds.value(), "transfer seconds");
    expectSameBits(a.transfer.totalEnergyJ.value(),
                   b.transfer.totalEnergyJ.value(), "transfer energy");
    expectBitEqual(a.transfer.perTransfer, b.transfer.perTransfer,
                   "perTransfer");
    expectSameBits(a.transfer.meanTtftShare, b.transfer.meanTtftShare,
                   "meanTtftShare");
    EXPECT_EQ(a.controlPlane.cancelledRequests,
              b.controlPlane.cancelledRequests);
    EXPECT_EQ(a.controlPlane.wastedTokens, b.controlPlane.wastedTokens);
    expectSameBits(a.controlPlane.replicaSeconds.value(),
                   b.controlPlane.replicaSeconds.value(),
                   "replicaSeconds");
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (size_t i = 0; i < a.replicas.size(); ++i) {
        SCOPED_TRACE("replica " + std::to_string(i));
        expectBitEqual(a.replicas[i], b.replicas[i]);
    }
}

} // namespace pimba

#endif // PIMBA_TESTS_BIT_EQUAL_H
