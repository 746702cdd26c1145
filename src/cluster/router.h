/**
 * @file
 * Request routers for the cluster fleet.
 *
 * A Router picks which replica serves each arriving request, given a
 * snapshot of every candidate replica's load at the arrival instant.
 * It is one value type: the policy, plus the only state a policy
 * carries between picks (the round-robin cursor and the
 * PowerOfTwoChoices sampler). Five policies ship:
 *
 *  - RoundRobin: rotate through the replicas regardless of load — the
 *    baseline every load-aware policy must beat, and the one that
 *    drowns the slow replicas of a heterogeneous fleet.
 *  - JoinShortestQueue: fewest unfinished requests (queued + resident).
 *  - LeastOutstandingTokens: fewest outstanding work tokens (prompt
 *    tokens still to prefill plus output tokens still to generate) — a
 *    finer signal than request counts when lengths vary.
 *  - PowerOfTwoChoices: sample two distinct replicas with a seeded
 *    LFSR, send to the less token-loaded of the pair — near-JSQ balance
 *    at O(1) state inspection (The Power of Two Choices, Mitzenmacher).
 *  - CacheAffinity: the most warm blocks of the request's class prefix
 *    among the replicas near the shortest queue; JSQ without a prefix.
 *
 * Every policy is deterministic: load ties break toward the lower tier
 * pressure, then the lowest replica index, and the only randomness
 * (PowerOfTwoChoices sampling) flows from the seed, so a fleet run is a
 * pure function of trace + config.
 */

#ifndef PIMBA_CLUSTER_ROUTER_H
#define PIMBA_CLUSTER_ROUTER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lfsr.h"
#include "core/names.h"
#include "serving/request.h"

namespace pimba {

/** Selectable routing policy. */
enum class RouterPolicy
{
    RoundRobin,             ///< rotate, load-blind
    JoinShortestQueue,      ///< fewest unfinished requests
    LeastOutstandingTokens, ///< fewest outstanding work tokens
    PowerOfTwoChoices,      ///< seeded 2-sample, less token-loaded wins
    /// Prefer the replica holding the most of this request's class
    /// prefix, among replicas within a small queue-depth slack of the
    /// shortest queue (locality must not starve load balance). Only
    /// meaningful under the control plane, which stamps
    /// Request::prefixLen and feeds cachedPrefixBlocks into the
    /// snapshots; with those at zero it degenerates to JSQ.
    CacheAffinity,
};

inline constexpr Named<RouterPolicy> kRouterNames[] = {
    {RouterPolicy::RoundRobin, "rr"},
    {RouterPolicy::JoinShortestQueue, "jsq"},
    {RouterPolicy::LeastOutstandingTokens, "lot"},
    {RouterPolicy::PowerOfTwoChoices, "p2c"},
    {RouterPolicy::CacheAffinity, "cache-affinity"},
};

inline std::string
routerName(RouterPolicy policy)
{
    return std::string(nameOf(kRouterNames, policy));
}

/** The load-only routing policies, for sweeps and tests. Excludes
 *  CacheAffinity deliberately: fleet sweeps iterate this list against
 *  traces with no prefix ids, where cache-affinity is just JSQ. */
const std::vector<RouterPolicy> &allRouterPolicies();

/** One replica's load at a routing instant. */
struct ReplicaSnapshot
{
    size_t queueDepth = 0;         ///< unfinished requests (queued + run)
    uint64_t outstandingTokens = 0; ///< work tokens still to serve
    /// Priority-weighted unfinished work (sum of tier + 1); load-tie
    /// break toward the replica hosting less important work. Zero in
    /// untiered fleets, leaving every legacy pick unchanged.
    uint64_t tierPressure = 0;
    /// Blocks of the *arriving request's* class prefix this replica
    /// has warm — the cache-affinity locality signal. Zero for
    /// requests without a prefix id.
    uint64_t cachedPrefixBlocks = 0;
};

/** Request-to-replica router for one policy. */
class Router
{
  public:
    /** @p seed drives PowerOfTwoChoices sampling. */
    explicit Router(RouterPolicy policy, uint32_t seed = 0x5EEDC4A5u)
        : kind(policy), rng(seed)
    {}

    RouterPolicy policy() const { return kind; }

    /**
     * Index into @p pool of the replica that serves @p r. @p pool holds
     * one snapshot per candidate replica, in replica order; it is never
     * empty.
     */
    size_t route(const std::vector<ReplicaSnapshot> &pool,
                 const Request &r);

  private:
    RouterPolicy kind;
    size_t next = 0; ///< RoundRobin cursor
    Lfsr32 rng;      ///< PowerOfTwoChoices sampler
};

/** A heap-allocated Router (@p seed as in the constructor). */
inline std::unique_ptr<Router>
makeRouter(RouterPolicy policy, uint32_t seed = 0x5EEDC4A5u)
{
    return std::make_unique<Router>(policy, seed);
}

} // namespace pimba

#endif // PIMBA_CLUSTER_ROUTER_H
