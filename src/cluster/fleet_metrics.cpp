#include "cluster/fleet_metrics.h"

#include <algorithm>

namespace pimba {

LoadStats
computeLoadStats(const std::vector<ServingReport> &replicas)
{
    LoadStats stats;
    stats.requestsPerReplica.reserve(replicas.size());
    stats.tokensPerReplica.reserve(replicas.size());
    for (const ServingReport &r : replicas) {
        // The counter, not completed.size(): a replica whose session
        // had a completion sink kept no records but counted them.
        stats.requestsPerReplica.push_back(r.completedRequests);
        stats.tokensPerReplica.push_back(r.generatedTokens);
    }

    auto imbalance = [](const std::vector<uint64_t> &per) {
        if (per.empty())
            return 0.0;
        uint64_t sum = 0, peak = 0;
        for (uint64_t v : per) {
            sum += v;
            peak = std::max(peak, v);
        }
        if (sum == 0)
            return 0.0;
        double mean =
            static_cast<double>(sum) / static_cast<double>(per.size());
        return static_cast<double>(peak) / mean;
    };
    stats.requestImbalance = imbalance(stats.requestsPerReplica);
    stats.tokenImbalance = imbalance(stats.tokensPerReplica);
    return stats;
}

} // namespace pimba
