/**
 * @file
 * Colocated fleet tests: deterministic replay for every router policy,
 * fleet-level token conservation, single-replica equivalence with the
 * plain engine, empty-input metric guards, and the pinned router claim
 * — load-aware policies (JSQ / least-tokens / power-of-two) strictly
 * beat round-robin on p95 TTFT at saturation on a heterogeneous fleet.
 */

#include <gtest/gtest.h>

#include <set>

#include "cluster/workload.h"
#include "serving/trace.h"

namespace pimba {
namespace {

uint64_t
outputTokens(const std::vector<Request> &trace)
{
    uint64_t total = 0;
    for (const Request &r : trace)
        total += r.outputLen;
    return total;
}

TEST(ClusterFleet, DeterministicReplayForEveryRouterPolicy)
{
    auto trace = clusterTrace(32.0, 64);
    ModelConfig model = mamba2_2p7b();
    for (RouterPolicy policy : allRouterPolicies()) {
        FleetReport a =
            Fleet(model, heterogeneousFleet(policy)).run(trace);
        // A fresh Fleet and a reused Fleet must both replay bit-exactly.
        Fleet reused(model, heterogeneousFleet(policy));
        FleetReport b = reused.run(trace);
        FleetReport c = reused.run(trace);

        for (const FleetReport *r : {&b, &c}) {
            EXPECT_EQ(a.assignments, r->assignments)
                << routerName(policy);
            EXPECT_DOUBLE_EQ(a.makespan.value(), r->makespan.value())
                << routerName(policy);
            EXPECT_DOUBLE_EQ(a.metrics.ttft.p95, r->metrics.ttft.p95)
                << routerName(policy);
            EXPECT_DOUBLE_EQ(a.metrics.goodput.value(),
                             r->metrics.goodput.value())
                << routerName(policy);
            ASSERT_EQ(a.completed.size(), r->completed.size());
            for (size_t i = 0; i < a.completed.size(); ++i) {
                EXPECT_EQ(a.completed[i].req.id, r->completed[i].req.id);
                EXPECT_DOUBLE_EQ(a.completed[i].latency.value(),
                                 r->completed[i].latency.value());
            }
            for (size_t i = 0; i < a.replicas.size(); ++i)
                EXPECT_EQ(a.replicas[i].iterations,
                          r->replicas[i].iterations)
                    << routerName(policy) << " replica " << i;
        }
    }
}

TEST(ClusterFleet, TokenConservationAndCompleteness)
{
    auto trace = clusterTrace(32.0, 96);
    Fleet fleet(mamba2_2p7b(),
                heterogeneousFleet(RouterPolicy::JoinShortestQueue));
    FleetReport rep = fleet.run(trace);

    ASSERT_EQ(rep.completed.size(), trace.size());
    ASSERT_EQ(rep.assignments.size(), trace.size());
    std::set<uint64_t> ids;
    for (const CompletedRequest &c : rep.completed)
        ids.insert(c.req.id);
    EXPECT_EQ(ids.size(), trace.size());

    uint64_t generated = 0;
    for (const ServingReport &r : rep.replicas)
        generated += r.generatedTokens;
    EXPECT_EQ(generated, outputTokens(trace));
    EXPECT_EQ(rep.metrics.generatedTokens, outputTokens(trace));

    // Per-replica load stats cover every routed request.
    uint64_t routed = 0;
    for (uint64_t n : rep.load.requestsPerReplica)
        routed += n;
    EXPECT_EQ(routed, trace.size());
    EXPECT_GE(rep.load.requestImbalance, 1.0);
    EXPECT_GE(rep.load.tokenImbalance, 1.0);
}

TEST(ClusterFleet, SingleReplicaFleetMatchesPlainEngine)
{
    auto trace = clusterTrace(16.0, 48);
    ModelConfig model = mamba2_2p7b();

    FleetReport fleet =
        Fleet(model, homogeneousFleet(SystemKind::PIMBA, 1))
            .run(trace);

    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    ServingReport engine =
        ServingEngine(sim, model).run(trace);

    EXPECT_DOUBLE_EQ(fleet.makespan.value(), engine.makespan.value());
    EXPECT_DOUBLE_EQ(fleet.metrics.ttft.p95, engine.metrics.ttft.p95);
    EXPECT_DOUBLE_EQ(fleet.metrics.tpot.p95, engine.metrics.tpot.p95);
    EXPECT_EQ(fleet.metrics.generatedTokens,
              engine.metrics.generatedTokens);
    EXPECT_EQ(fleet.replicas[0].iterations, engine.iterations);
}

TEST(ClusterFleet, LoadAwareRoutersBeatRoundRobinAtSaturation)
{
    // At 48 req/s the round-robin fleet pushes each GPU replica to
    // twice its ~8 req/s capacity while the Pimba replicas idle below
    // theirs; the load-aware policies divert the overflow, so their
    // tail TTFT must be strictly lower. This is the cluster layer's
    // core claim — pinned, not just printed by cluster_routers.json.
    auto trace = clusterTrace(48.0, 192);
    ModelConfig model = mamba2_2p7b();

    FleetReport rr =
        Fleet(model, heterogeneousFleet(RouterPolicy::RoundRobin))
            .run(trace);
    for (RouterPolicy policy : {RouterPolicy::JoinShortestQueue,
                                RouterPolicy::LeastOutstandingTokens,
                                RouterPolicy::PowerOfTwoChoices}) {
        FleetReport aware =
            Fleet(model, heterogeneousFleet(policy)).run(trace);
        EXPECT_LT(aware.metrics.ttft.p95, rr.metrics.ttft.p95)
            << routerName(policy);
        EXPECT_GE(aware.metrics.goodput, rr.metrics.goodput)
            << routerName(policy);
    }
}

TEST(ClusterFleet, RoundRobinSpreadsRequestsEvenly)
{
    auto trace = clusterTrace(48.0, 192); // 192 = 4 x 48, exact split
    Fleet fleet(mamba2_2p7b(),
                heterogeneousFleet(RouterPolicy::RoundRobin));
    FleetReport rep = fleet.run(trace);
    for (uint64_t n : rep.load.requestsPerReplica)
        EXPECT_EQ(n, trace.size() / rep.replicas.size());
    EXPECT_DOUBLE_EQ(rep.load.requestImbalance, 1.0);
}

TEST(ClusterFleet, AggregateMetricsMatchesFleetRecords)
{
    // aggregateMetrics is the API for callers holding only per-replica
    // reports; on a colocated run it must reproduce the fleet metrics
    // computed from the merged records, and tolerate an empty fleet.
    auto trace = clusterTrace(32.0, 64);
    Fleet fleet(mamba2_2p7b(),
                heterogeneousFleet(RouterPolicy::JoinShortestQueue));
    FleetReport rep = fleet.run(trace);

    ServingMetrics agg =
        aggregateMetrics(rep.replicas, rep.makespan, fleet.config().slo);
    EXPECT_EQ(agg.requests, rep.metrics.requests);
    EXPECT_EQ(agg.generatedTokens, rep.metrics.generatedTokens);
    EXPECT_DOUBLE_EQ(agg.goodput.value(), rep.metrics.goodput.value());
    EXPECT_DOUBLE_EQ(agg.ttft.p95, rep.metrics.ttft.p95);
    EXPECT_DOUBLE_EQ(agg.tpot.p95, rep.metrics.tpot.p95);

    ServingMetrics empty = aggregateMetrics({}, Seconds(0.0), SloConfig{});
    EXPECT_EQ(empty.requests, 0u);
    EXPECT_DOUBLE_EQ(empty.goodput.value(), 0.0);
}

TEST(ClusterFleet, EmptyTraceYieldsZeroedFleetMetrics)
{
    // A fleet that serves nothing must report zeros, not UB — the
    // aggregate path is the same one a saturated zero-completion
    // replica exercises.
    Fleet fleet(mamba2_2p7b(),
                homogeneousFleet(SystemKind::PIMBA, 2));
    FleetReport rep = fleet.run({});
    EXPECT_EQ(rep.metrics.requests, 0u);
    EXPECT_DOUBLE_EQ(rep.metrics.goodput.value(), 0.0);
    EXPECT_DOUBLE_EQ(rep.metrics.ttft.p95, 0.0);
    EXPECT_DOUBLE_EQ(rep.makespan.value(), 0.0);
    EXPECT_DOUBLE_EQ(rep.load.requestImbalance, 0.0);
    EXPECT_EQ(rep.transfer.transfers, 0u);
}

TEST(ClusterFleet, QueueingDelayIsSurfacedPerRequest)
{
    auto trace = clusterTrace(48.0, 96);
    Fleet fleet(mamba2_2p7b(),
                heterogeneousFleet(RouterPolicy::RoundRobin));
    FleetReport rep = fleet.run(trace);
    for (const CompletedRequest &c : rep.completed) {
        EXPECT_GE(c.queueing, Seconds(0.0));
        // Admission precedes the first token.
        EXPECT_LE(c.queueing, c.ttft + Seconds(1e-12));
    }
    EXPECT_GE(rep.metrics.queueing.max, rep.metrics.queueing.p50);
}

} // namespace
} // namespace pimba
