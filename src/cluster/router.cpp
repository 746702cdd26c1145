#include "cluster/router.h"

#include <tuple>
#include <utility>

#include "core/logging.h"

namespace pimba {

namespace {

/** Argmin over the pool by @p key; ties fall to the lower index. */
template <typename Key>
size_t
argminBy(const std::vector<ReplicaSnapshot> &pool, Key key)
{
    size_t best = 0;
    for (size_t i = 1; i < pool.size(); ++i)
        if (key(pool[i]) < key(pool[best]))
            best = i;
    return best;
}

// A policy's own load signal, then tier pressure: a load tie breaks
// toward the replica hosting less important work (tierPressure is zero
// in untiered fleets, so legacy picks are unchanged).
constexpr auto depthKey = [](const ReplicaSnapshot &s) {
    return std::make_tuple(s.queueDepth, s.tierPressure);
};

constexpr auto tokensKey = [](const ReplicaSnapshot &s) {
    return std::make_tuple(s.outstandingTokens, s.tierPressure);
};

/// CacheAffinity: replicas within this many requests of the shortest
/// queue compete on cache.
constexpr size_t kQueueSlack = 2;

} // namespace

size_t
Router::route(const std::vector<ReplicaSnapshot> &pool, const Request &)
{
    switch (kind) {
      case RouterPolicy::RoundRobin:
        return next++ % pool.size();
      case RouterPolicy::JoinShortestQueue:
        return argminBy(pool, depthKey);
      case RouterPolicy::LeastOutstandingTokens:
        return argminBy(pool, tokensKey);
      case RouterPolicy::PowerOfTwoChoices: {
        size_t n = pool.size();
        if (n == 1)
            return 0;
        // Two distinct uniform draws; the second skips over the first.
        size_t a = rng.next() % n;
        size_t b = rng.next() % (n - 1);
        if (b >= a)
            ++b;
        // Less token-loaded of the pair; a tie goes to the lower index.
        if (b < a)
            std::swap(a, b);
        return tokensKey(pool[b]) < tokensKey(pool[a]) ? b : a;
      }
      case RouterPolicy::CacheAffinity: {
        // Pure locality would pile a hot class onto one replica
        // forever, so replicas beyond the slack sort last. The rest
        // rank by most warm prefix blocks (~ reverses the order), then
        // JSQ's order — exactly JSQ when no replica holds the prefix.
        const size_t cutoff =
            pool[argminBy(pool, depthKey)].queueDepth + kQueueSlack;
        return argminBy(pool, [cutoff](const ReplicaSnapshot &s) {
            return std::make_tuple(s.queueDepth > cutoff,
                                   ~s.cachedPrefixBlocks, depthKey(s));
        });
      }
    }
    PIMBA_PANIC("unknown router policy");
}

const std::vector<RouterPolicy> &
allRouterPolicies()
{
    static const std::vector<RouterPolicy> kAll = {
        RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue,
        RouterPolicy::LeastOutstandingTokens,
        RouterPolicy::PowerOfTwoChoices};
    return kAll;
}

} // namespace pimba
