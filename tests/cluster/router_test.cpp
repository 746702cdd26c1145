/**
 * @file
 * Router policy unit tests: deterministic picks, documented tie
 * breaking (tier pressure, then the lowest replica index), seeded
 * power-of-two sampling that replays identically for a given seed, and
 * cache affinity's queue slack and prefix locality.
 */

#include <gtest/gtest.h>

#include "cluster/router.h"

namespace pimba {
namespace {

Request
req(uint64_t id)
{
    Request r;
    r.id = id;
    r.inputLen = 128;
    r.outputLen = 32;
    return r;
}

std::vector<ReplicaSnapshot>
pool(std::vector<std::pair<size_t, uint64_t>> loads)
{
    std::vector<ReplicaSnapshot> snap;
    for (auto [depth, tokens] : loads)
        snap.push_back(ReplicaSnapshot{depth, tokens});
    return snap;
}

TEST(ClusterRouter, NamesAndRegistry)
{
    EXPECT_EQ(allRouterPolicies().size(), 4u);
    EXPECT_EQ(routerName(RouterPolicy::RoundRobin), "rr");
    EXPECT_EQ(routerName(RouterPolicy::JoinShortestQueue), "jsq");
    EXPECT_EQ(routerName(RouterPolicy::LeastOutstandingTokens), "lot");
    EXPECT_EQ(routerName(RouterPolicy::PowerOfTwoChoices), "p2c");
    for (RouterPolicy p : allRouterPolicies())
        EXPECT_EQ(makeRouter(p)->policy(), p);
}

TEST(ClusterRouter, RoundRobinCycles)
{
    auto rr = makeRouter(RouterPolicy::RoundRobin);
    auto snap = pool({{9, 900}, {0, 0}, {5, 500}});
    for (uint64_t i = 0; i < 9; ++i)
        EXPECT_EQ(rr->route(snap, req(i)), i % 3) << i;
}

TEST(ClusterRouter, JsqPicksShortestQueueTiesToLowestIndex)
{
    auto jsq = makeRouter(RouterPolicy::JoinShortestQueue);
    EXPECT_EQ(jsq->route(pool({{4, 10}, {2, 99}, {3, 1}}), req(0)), 1u);
    // Queue-depth tie between replicas 0 and 2: the lower index wins,
    // even though replica 2 has fewer outstanding tokens.
    EXPECT_EQ(jsq->route(pool({{2, 50}, {3, 0}, {2, 10}}), req(1)), 0u);
}

TEST(ClusterRouter, LeastTokensPicksLightestTokenLoad)
{
    auto lot = makeRouter(RouterPolicy::LeastOutstandingTokens);
    EXPECT_EQ(lot->route(pool({{1, 500}, {9, 100}, {2, 300}}), req(0)),
              1u);
    EXPECT_EQ(lot->route(pool({{1, 100}, {9, 100}}), req(1)), 0u);
}

TEST(ClusterRouter, PowerOfTwoComparesTheSampledPair)
{
    // With exactly two replicas every sample is the pair {0, 1}, so
    // the pick is always the less token-loaded replica.
    auto p2c = makeRouter(RouterPolicy::PowerOfTwoChoices, 42);
    for (uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(p2c->route(pool({{1, 10}, {1, 999}}), req(i)), 0u);
    for (uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(p2c->route(pool({{1, 999}, {1, 10}}), req(i)), 1u);
}

TEST(ClusterRouter, PowerOfTwoIsSeedDeterministic)
{
    auto a = makeRouter(RouterPolicy::PowerOfTwoChoices, 7);
    auto b = makeRouter(RouterPolicy::PowerOfTwoChoices, 7);
    auto snap = pool({{1, 100}, {1, 100}, {1, 100}, {1, 100}});
    for (uint64_t i = 0; i < 64; ++i) {
        size_t pa = a->route(snap, req(i));
        EXPECT_EQ(pa, b->route(snap, req(i))) << i;
        EXPECT_LT(pa, snap.size());
    }
}

TEST(ClusterRouter, TierPressureBreaksLoadTies)
{
    // Equal load on the policy's own signal: the replica hosting less
    // important work (lower tier pressure) wins, before the index.
    auto jsq = makeRouter(RouterPolicy::JoinShortestQueue);
    EXPECT_EQ(jsq->route({{2, 100, 4}, {2, 900, 1}, {2, 0, 1}}, req(0)),
              1u);
    auto lot = makeRouter(RouterPolicy::LeastOutstandingTokens);
    EXPECT_EQ(lot->route({{1, 100, 4}, {9, 100, 1}, {0, 100, 1}}, req(0)),
              1u);
    // A two-replica pool always samples the pair {0, 1}; with equal
    // outstanding tokens the lower tier pressure wins either way round.
    auto p2c = makeRouter(RouterPolicy::PowerOfTwoChoices, 42);
    for (uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(p2c->route({{1, 100, 5}, {1, 100, 1}}, req(i)), 1u) << i;
        EXPECT_EQ(p2c->route({{1, 100, 1}, {1, 100, 5}}, req(i)), 0u) << i;
    }
}

TEST(ClusterRouter, CacheAffinityCompetesWithinTwoRequestsOfTheShortest)
{
    auto ca = makeRouter(RouterPolicy::CacheAffinity);
    // Shortest queue is 1: replica 1 at depth 3 is within the slack and
    // holds prefix blocks; replica 2 at depth 4 holds more but is out.
    EXPECT_EQ(ca->route({{1, 0, 0, 0}, {3, 0, 0, 5}, {4, 0, 0, 9}}, req(0)),
              1u);
    EXPECT_EQ(ca->route({{1, 0, 0, 0}, {4, 0, 0, 5}}, req(1)), 0u);
}

TEST(ClusterRouter, CacheAffinityPrefersTheWarmestReplica)
{
    auto ca = makeRouter(RouterPolicy::CacheAffinity);
    EXPECT_EQ(ca->route({{0, 0, 0, 2}, {1, 0, 0, 7}, {2, 0, 0, 3}}, req(0)),
              1u);
    // Equally warm: the shorter queue, then the lower tier pressure.
    EXPECT_EQ(ca->route({{1, 0, 0, 4}, {0, 0, 0, 4}, {0, 0, 0, 1}}, req(1)),
              1u);
    EXPECT_EQ(ca->route({{0, 0, 3, 4}, {0, 0, 1, 4}}, req(2)), 1u);
}

TEST(ClusterRouter, CacheAffinityWithoutPrefixFollowsJsq)
{
    auto ca = makeRouter(RouterPolicy::CacheAffinity);
    auto jsq = makeRouter(RouterPolicy::JoinShortestQueue);
    const std::vector<std::vector<ReplicaSnapshot>> pools = {
        {{2, 0, 3}, {2, 0, 1}, {3, 0, 0}},
        {{4, 0, 0}, {1, 0, 2}, {1, 0, 2}, {0, 0, 9}},
        {{5, 0, 1}, {5, 0, 1}},
    };
    const size_t expected[] = {1, 3, 0};
    for (size_t k = 0; k < pools.size(); ++k) {
        EXPECT_EQ(ca->route(pools[k], req(k)), expected[k]) << k;
        EXPECT_EQ(jsq->route(pools[k], req(k)), expected[k]) << k;
    }
}

TEST(ClusterRouter, SingleReplicaPoolAlwaysPicksIt)
{
    for (RouterPolicy p : allRouterPolicies()) {
        auto router = makeRouter(p);
        for (uint64_t i = 0; i < 4; ++i)
            EXPECT_EQ(router->route(pool({{3, 30}}), req(i)), 0u)
                << routerName(p);
    }
}

} // namespace
} // namespace pimba
