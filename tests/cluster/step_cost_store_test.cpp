/**
 * @file
 * Step-cost store sharing: replicas of one (kind, nGpus, execution
 * mode) cost their steps in one StepCostStore, and sharing must not
 * move a single bit of any report.
 *
 *  - RR split: a colocated N-replica round-robin fleet, whose replicas
 *    share one store, equals N standalone engines with private stores,
 *    each fed the i-mod-N sub-trace — every ServingReport field,
 *    bit-exact, on Poisson and MMPP arrivals.
 *  - Store keys: blocked and overlapped replicas of one kind, and
 *    replicas of different kinds, never share a store.
 *  - Memo counters: a shared store misses each key exactly once, so
 *    its misses never exceed what private stores miss in total, while
 *    both see the same lookups.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/workload.h"
#include "serving/trace.h"

namespace pimba {
namespace {

/// Bit-level double equality (EXPECT_DOUBLE_EQ allows 4 ulps).
void
expectSameBits(double a, double b, const std::string &what)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
        << what << ": " << a << " vs " << b;
}

void
expectSameSummary(const LatencySummary &a, const LatencySummary &b,
                  const std::string &what)
{
    EXPECT_EQ(a.count, b.count) << what;
    expectSameBits(a.mean, b.mean, what + ".mean");
    expectSameBits(a.min, b.min, what + ".min");
    expectSameBits(a.p50, b.p50, what + ".p50");
    expectSameBits(a.p95, b.p95, what + ".p95");
    expectSameBits(a.p99, b.p99, what + ".p99");
    expectSameBits(a.max, b.max, what + ".max");
}

/// Every field of two engine reports, bit-exact.
void
expectSameReport(const ServingReport &a, const ServingReport &b)
{
    ASSERT_EQ(a.completed.size(), b.completed.size());
    for (size_t i = 0; i < a.completed.size(); ++i) {
        const CompletedRequest &x = a.completed[i];
        const CompletedRequest &y = b.completed[i];
        const std::string at = "record " + std::to_string(i);
        EXPECT_EQ(x.req.id, y.req.id) << at;
        expectSameBits(x.req.arrival.value(), y.req.arrival.value(), at);
        EXPECT_EQ(x.req.inputLen, y.req.inputLen) << at;
        EXPECT_EQ(x.req.outputLen, y.req.outputLen) << at;
        EXPECT_EQ(x.req.classId, y.req.classId) << at;
        EXPECT_EQ(x.req.prefixLen, y.req.prefixLen) << at;
        expectSameBits(x.ttft.value(), y.ttft.value(), at + " ttft");
        expectSameBits(x.tpot.value(), y.tpot.value(), at + " tpot");
        expectSameBits(x.latency.value(), y.latency.value(),
                       at + " latency");
        expectSameBits(x.queueing.value(), y.queueing.value(),
                       at + " queueing");
        EXPECT_EQ(x.preemptions, y.preemptions) << at;
    }
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.cancelledRequests, b.cancelledRequests);
    EXPECT_EQ(a.wastedTokens, b.wastedTokens);

    const ServingMetrics &m = a.metrics;
    const ServingMetrics &n = b.metrics;
    EXPECT_EQ(m.requests, n.requests);
    EXPECT_EQ(m.generatedTokens, n.generatedTokens);
    expectSameBits(m.makespan.value(), n.makespan.value(), "makespan");
    expectSameBits(m.tokensPerSec.value(), n.tokensPerSec.value(),
                   "tokensPerSec");
    expectSameBits(m.requestsPerSec.value(), n.requestsPerSec.value(),
                   "requestsPerSec");
    expectSameBits(m.goodput.value(), n.goodput.value(), "goodput");
    EXPECT_EQ(m.sloViolations, n.sloViolations);
    EXPECT_EQ(m.cancelledRequests, n.cancelledRequests);
    EXPECT_EQ(m.wastedTokens, n.wastedTokens);
    expectSameSummary(m.ttft, n.ttft, "ttft");
    expectSameSummary(m.tpot, n.tpot, "tpot");
    expectSameSummary(m.latency, n.latency, "latency");
    expectSameSummary(m.queueing, n.queueing, "queueing");
    expectSameSummary(m.preemptions, n.preemptions, "preemptions");

    expectSameBits(a.makespan.value(), b.makespan.value(),
                   "report makespan");
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

/// A seeded Mamba-2 trace at @p rate with @p process arrivals.
std::vector<Request>
seededTrace(ArrivalProcess process, double rate, int n, uint32_t seed)
{
    TraceConfig tc;
    tc.arrivals = process;
    tc.ratePerSec = rate;
    tc.numRequests = n;
    tc.lengths = LengthDistribution::Uniform;
    tc.inputLen = 256;
    tc.inputLenMax = 768;
    tc.outputLen = 128;
    tc.outputLenMax = 384;
    tc.mmpp.burstMean = Seconds(1.0);
    tc.mmpp.idleMean = Seconds(3.0);
    tc.seed = seed;
    return generateTrace(tc);
}

/// Requests i, i + n, i + 2n, ... of @p trace.
std::vector<Request>
everyNth(const std::vector<Request> &trace, size_t i, size_t n)
{
    std::vector<Request> out;
    for (size_t k = i; k < trace.size(); k += n)
        out.push_back(trace[k]);
    return out;
}

/// The sum of the private stores' counters of one memo.
MemoCounts
operator+(MemoCounts a, const MemoCounts &b)
{
    a.lookups += b.lookups;
    a.misses += b.misses;
    return a;
}

TEST(StepCostStore, RoundRobinSplitEqualsStandaloneEngines)
{
    const ModelConfig model = mamba2_2p7b();
    for (size_t n : {2u, 3u, 4u}) {
        for (ArrivalProcess process :
             {ArrivalProcess::Poisson, ArrivalProcess::Mmpp}) {
            for (uint32_t seed : {0x5EED0001u, 0xC0FFEEu, 0xBADA55u}) {
                // Sarathi on the MMPP runs exercises the fused memo.
                EngineConfig ec;
                ec.maxBatch = 32;
                ec.policy = process == ArrivalProcess::Mmpp
                                ? SchedulerPolicy::Sarathi
                                : SchedulerPolicy::FCFS;
                const auto trace = seededTrace(
                    process, 14.0 * static_cast<double>(n),
                    40 * static_cast<int>(n), seed);
                Fleet fleet(model,
                            homogeneousFleet(SystemKind::PIMBA, n, ec));
                for (size_t i = 1; i < n; ++i)
                    ASSERT_EQ(&fleet.replica(i).costStore(),
                              &fleet.replica(0).costStore());
                FleetReport shared = fleet.run(trace);
                ASSERT_EQ(shared.replicas.size(), n);
                for (size_t i = 0; i < n; ++i) {
                    SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                                 std::to_string(seed) + " process=" +
                                 std::to_string(static_cast<int>(process)) +
                                 " replica " + std::to_string(i));
                    ServingEngine alone(
                        ServingSimulator(makeSystem(SystemKind::PIMBA)),
                        model, ec);
                    expectSameReport(shared.replicas[i],
                                     alone.run(everyNth(trace, i, n)));
                }
            }
        }
    }
}

TEST(StepCostStore, ReplicasShareOnlyStoresOfTheSameKindAndMode)
{
    // Half blocked, half overlapped: two stores, one per mode.
    Fleet modes(mamba2_2p7b(), mixedModePimbaFleet(4));
    EXPECT_EQ(&modes.replica(0).costStore(), &modes.replica(1).costStore());
    EXPECT_EQ(&modes.replica(2).costStore(), &modes.replica(3).costStore());
    EXPECT_NE(&modes.replica(0).costStore(), &modes.replica(2).costStore());
    EXPECT_EQ(modes.replica(0).simulator().system().executionMode,
              ExecutionMode::Blocked);
    EXPECT_EQ(modes.replica(2).simulator().system().executionMode,
              ExecutionMode::Overlapped);

    // 2x Pimba + 2x GPU: one store per kind.
    Fleet kinds(mamba2_2p7b(), heterogeneousFleet());
    EXPECT_EQ(&kinds.replica(0).costStore(), &kinds.replica(1).costStore());
    EXPECT_EQ(&kinds.replica(2).costStore(), &kinds.replica(3).costStore());
    EXPECT_NE(&kinds.replica(0).costStore(), &kinds.replica(2).costStore());

    // An unset mode resolves to the system's default (Blocked).
    StepCostStores stores(mamba2_2p7b());
    auto inherit = stores.get(SystemKind::PIMBA, 1, std::nullopt);
    EXPECT_EQ(inherit, stores.get(SystemKind::PIMBA, 1,
                                  ExecutionMode::Blocked));
    EXPECT_NE(inherit, stores.get(SystemKind::PIMBA, 1,
                                  ExecutionMode::Overlapped));
    EXPECT_NE(inherit, stores.get(SystemKind::PIMBA, 2, std::nullopt));
}

TEST(StepCostStore, SharedStoreMissesEachKeyOnce)
{
    const ModelConfig model = mamba2_2p7b();
    const size_t n = 4;
    const auto trace = seededTrace(ArrivalProcess::Poisson, 56.0, 160,
                                   0x5EED0001u);
    EngineConfig ec;
    ec.maxBatch = 32;
    Fleet fleet(model, homogeneousFleet(SystemKind::PIMBA, n, ec));
    fleet.run(trace);
    const MemoStats cold = fleet.replica(0).costStore().stats();

    // A rerun finds every key filled: lookups double, misses stay.
    fleet.run(trace);
    const MemoStats warm = fleet.replica(0).costStore().stats();
    EXPECT_EQ(warm.decode.lookups, 2 * cold.decode.lookups);
    EXPECT_EQ(warm.prefill.lookups, 2 * cold.prefill.lookups);
    EXPECT_EQ(warm.decode.misses, cold.decode.misses);
    EXPECT_EQ(warm.prefill.misses, cold.prefill.misses);

    // The same work on private stores (the RR split) looks up exactly
    // as often, but misses each key once per engine that meets it.
    MemoCounts decode, prefill;
    for (size_t i = 0; i < n; ++i) {
        ServingEngine alone(ServingSimulator(makeSystem(SystemKind::PIMBA)),
                            model, ec);
        alone.run(everyNth(trace, i, n));
        decode = decode + alone.costStore().stats().decode;
        prefill = prefill + alone.costStore().stats().prefill;
        EXPECT_LE(alone.costStore().stats().decode.misses,
                  cold.decode.misses);
    }
    EXPECT_EQ(decode.lookups, cold.decode.lookups);
    EXPECT_EQ(prefill.lookups, cold.prefill.lookups);
    EXPECT_GT(decode.misses + prefill.misses,
              cold.decode.misses + cold.prefill.misses);

    // Pinned counts: a change that re-costs filled keys, or stops
    // bucketing, moves these.
    EXPECT_EQ(cold.decode.lookups, 2449u);
    EXPECT_EQ(cold.decode.misses, 143u);
    EXPECT_EQ(cold.prefill.lookups, 236u);
    EXPECT_EQ(cold.prefill.misses, 138u);
    EXPECT_EQ(decode.misses, 272u);
    EXPECT_EQ(prefill.misses, 158u);

    // Untraced runs never touch the phase memos or the fused memo
    // (FCFS plans no fused iterations).
    EXPECT_EQ(cold.decodePhases.lookups, 0u);
    EXPECT_EQ(cold.prefillPhases.lookups, 0u);
    EXPECT_EQ(cold.mixedPhases.lookups, 0u);
    EXPECT_EQ(cold.mixed.lookups, 0u);
}

} // namespace
} // namespace pimba
