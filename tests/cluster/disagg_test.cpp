/**
 * @file
 * Prefill/decode disaggregation tests: the shipped bytes follow the
 * simulator's footprint math, the link transfer is charged into TTFT
 * (a slower link strictly raises it), fleet-level token conservation
 * spans both stages, single-token requests never cross the link,
 * replay is deterministic, and the pinned comparison against the
 * colocated baseline — decode replicas freed of prefill interference
 * show strictly lower tail TPOT on the same trace.
 */

#include <gtest/gtest.h>

#include <set>

#include "cluster/workload.h"
#include "serving/trace.h"

namespace pimba {
namespace {

TEST(ClusterDisagg, CompletenessTokenConservationAndStageSplit)
{
    auto trace = clusterTrace(24.0, 96);
    Fleet fleet(mamba2_2p7b(), disaggregatedPimbaFleet());
    FleetReport rep = fleet.run(trace);

    ASSERT_EQ(rep.completed.size(), trace.size());
    std::set<uint64_t> ids;
    uint64_t expected = 0;
    for (const Request &r : trace)
        expected += r.outputLen;
    for (const CompletedRequest &c : rep.completed)
        ids.insert(c.req.id);
    EXPECT_EQ(ids.size(), trace.size());

    // Prefill replicas deliver 1 token per request, decode replicas the
    // remaining outputLen - 1; the fleet total must conserve.
    uint64_t generated = 0;
    for (const ServingReport &r : rep.replicas) {
        generated += r.generatedTokens;
        // Per-replica metrics must agree with the replica's own
        // delivered counter — a decode replica does not re-claim the
        // first token its prefill replica already delivered.
        EXPECT_EQ(r.metrics.generatedTokens, r.generatedTokens);
    }
    EXPECT_EQ(generated, expected);
    EXPECT_EQ(rep.metrics.generatedTokens, expected);

    // Stage split respected: prefill on replicas [0, 2), decode on
    // [2, 4), every multi-token request handed off exactly once.
    uint64_t multiToken = 0;
    for (const Request &r : trace)
        if (r.outputLen > 1)
            ++multiToken;
    EXPECT_EQ(rep.transfer.transfers, multiToken);
    for (const Assignment &a : rep.assignments) {
        EXPECT_LT(a.replica, 2u);
        if (a.decodeReplica >= 0) {
            EXPECT_GE(a.decodeReplica, 2);
        }
    }
}

TEST(ClusterDisagg, TransferBytesFollowFootprintMath)
{
    // Fixed-length OPT trace: the KV cache grows per token, so every
    // hand-off ships exactly state + KV at inputLen + 1 tokens.
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 8.0;
    tc.numRequests = 24;
    tc.inputLen = 256;
    tc.outputLen = 32;
    tc.seed = 0x5EEDBEEFu;
    auto trace = generateTrace(tc);

    ModelConfig model = opt2p7b();
    Fleet fleet(model, disaggregatedPimbaFleet());
    FleetReport rep = fleet.run(trace);

    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    MemoryUsage mem = sim.memoryUsage(model, 1, 256 + 1);
    Bytes perTransfer = mem.state + mem.kvCache;
    ASSERT_EQ(rep.transfer.transfers, trace.size());
    EXPECT_GT(perTransfer, Bytes(0.0));
    EXPECT_NEAR(rep.transfer.totalBytes.value(),
                perTransfer.value() * static_cast<double>(trace.size()),
                1e-6 * rep.transfer.totalBytes.value());
    EXPECT_GT(rep.transfer.totalSeconds, Seconds(0.0));
    EXPECT_GT(rep.transfer.totalEnergyJ, Joules(0.0));
    EXPECT_GT(rep.transfer.perTransfer.p50, 0.0);
}

TEST(ClusterDisagg, TransferIsChargedIntoTtft)
{
    auto trace = clusterTrace(24.0, 96);
    ModelConfig model = mamba2_2p7b();

    FleetReport nvlink = Fleet(model, disaggregatedPimbaFleet(nvlinkLink()))
                             .run(trace);
    FleetReport ib = Fleet(model, disaggregatedPimbaFleet(infinibandLink()))
                         .run(trace);

    // The prefill stage is identical in both runs; only the link
    // differs, and every hand-off pays strictly more on InfiniBand —
    // so the transfer-inclusive TTFT must be strictly higher.
    EXPECT_GT(ib.transfer.perTransfer.p50,
              nvlink.transfer.perTransfer.p50);
    EXPECT_GT(ib.metrics.ttft.mean, nvlink.metrics.ttft.mean);
    EXPECT_GT(ib.transfer.meanTtftShare, nvlink.transfer.meanTtftShare);
    EXPECT_GT(nvlink.transfer.meanTtftShare, 0.0);
    EXPECT_LT(ib.transfer.meanTtftShare, 1.0);

    // TTFT always covers the wait for the blocks to land, and the
    // decode stage can only add time after it.
    for (const CompletedRequest &c : nvlink.completed) {
        EXPECT_GT(c.ttft, Seconds(0.0));
        EXPECT_GE(c.latency, c.ttft - Seconds(1e-12));
        EXPECT_GE(c.tpot, Seconds(0.0));
    }
}

TEST(ClusterDisagg, DisaggregationCutsTailTpotAgainstColocated)
{
    // The DistServe claim on the same trace and the same 4 devices:
    // colocated replicas interleave prefill chunks with decode steps,
    // inflating inter-token gaps; dedicated decode replicas do not.
    // The transfer-inclusive TTFT is reported against the colocated
    // baseline by cluster_disaggregation.json; here both sides are
    // pinned.
    auto trace = clusterTrace(24.0, 192);
    ModelConfig model = mamba2_2p7b();

    FleetReport coloRep = Fleet(model, colocatedPimbaFleet()).run(trace);
    FleetReport disRep = Fleet(model, disaggregatedPimbaFleet()).run(trace);

    EXPECT_LT(disRep.metrics.tpot.p95, coloRep.metrics.tpot.p95);
    // Both fleets must be healthy for the comparison to mean anything.
    EXPECT_GT(coloRep.metrics.goodput, RequestsPerSecond(0.0));
    EXPECT_GT(disRep.metrics.goodput, RequestsPerSecond(0.0));
    EXPECT_EQ(disRep.completed.size(), coloRep.completed.size());
}

TEST(ClusterDisagg, SingleTokenRequestsCompleteAtPrefillStage)
{
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Fixed;
    tc.ratePerSec = 50.0;
    tc.numRequests = 12;
    tc.inputLen = 128;
    tc.outputLen = 1;
    auto trace = generateTrace(tc);

    Fleet fleet(mamba2_2p7b(), disaggregatedPimbaFleet());
    FleetReport rep = fleet.run(trace);
    ASSERT_EQ(rep.completed.size(), trace.size());
    EXPECT_EQ(rep.transfer.transfers, 0u);
    EXPECT_DOUBLE_EQ(rep.transfer.totalBytes.value(), 0.0);
    for (const Assignment &a : rep.assignments)
        EXPECT_EQ(a.decodeReplica, -1);
    // Decode replicas never saw a request.
    EXPECT_EQ(rep.replicas[2].completed.size(), 0u);
    EXPECT_EQ(rep.replicas[3].completed.size(), 0u);
}

TEST(ClusterDisagg, DecodeSidePreemptionConservesTokens)
{
    // Squeeze the decode replicas' block pools until eviction fires
    // mid-decode. A preloaded victim's shipped prompt is assumed to be
    // retained in the transfer staging buffer (no second link
    // transfer), so only its locally decoded tokens are recompute debt
    // — and the fleet totals must still conserve.
    ModelConfig model = opt2p7b(); // KV growth forces decode pressure
    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    Bytes weights = sim.weightFootprint(model);

    FleetConfig cfg = disaggregatedPimbaFleet();
    for (size_t i = cfg.prefillReplicas; i < cfg.replicas.size(); ++i)
        cfg.replicas[i].engine.memoryBudget =
            weights + 3.0 * sim.requestFootprint(model, 256 + 192);

    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Fixed;
    tc.ratePerSec = 200.0; // near-simultaneous burst
    tc.numRequests = 12;
    tc.inputLen = 256;
    tc.outputLen = 192;
    auto trace = generateTrace(tc);

    FleetReport rep = Fleet(model, cfg).run(trace);
    ASSERT_EQ(rep.completed.size(), trace.size());

    uint64_t decodePreemptions = 0, decodeRecomputed = 0;
    for (size_t i = cfg.prefillReplicas; i < cfg.replicas.size(); ++i) {
        decodePreemptions += rep.replicas[i].preemptions;
        decodeRecomputed += rep.replicas[i].recomputedTokens;
    }
    EXPECT_GT(decodePreemptions, 0u);
    // Recompute debt counts locally decoded tokens only — it can never
    // reach the shipped-prompt volume a full re-prefill would imply.
    EXPECT_GT(decodeRecomputed, 0u);
    EXPECT_LT(decodeRecomputed, decodePreemptions * 256);

    uint64_t generated = 0, expected = 0;
    for (const ServingReport &r : rep.replicas)
        generated += r.generatedTokens;
    for (const Request &r : trace)
        expected += r.outputLen;
    EXPECT_EQ(generated, expected);
    EXPECT_EQ(rep.transfer.transfers, trace.size());
}

TEST(ClusterDisagg, DeterministicReplayForEveryRouterPolicy)
{
    auto trace = clusterTrace(24.0, 48);
    ModelConfig model = mamba2_2p7b();
    for (RouterPolicy policy : allRouterPolicies()) {
        FleetConfig cfg = disaggregatedPimbaFleet();
        cfg.router = policy;
        FleetReport a = Fleet(model, cfg).run(trace);
        FleetReport b = Fleet(model, cfg).run(trace);
        EXPECT_EQ(a.assignments, b.assignments) << routerName(policy);
        EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value()) << routerName(policy);
        EXPECT_DOUBLE_EQ(a.metrics.ttft.p95, b.metrics.ttft.p95)
            << routerName(policy);
        EXPECT_DOUBLE_EQ(a.transfer.totalSeconds.value(),
                         b.transfer.totalSeconds.value())
            << routerName(policy);
    }
}

} // namespace
} // namespace pimba
