/**
 * @file
 * Fleet-level load and transfer statistics: how (un)evenly the router
 * spread the load over the replicas, and what cross-replica block
 * transfers cost a disaggregated fleet. An empty fleet, or a saturated
 * replica that completed zero requests, reports zeros rather than
 * dividing by nothing. The fleet's latency metrics come from its own
 * records or completion stream (cluster/fleet.h).
 */

#ifndef PIMBA_CLUSTER_FLEET_METRICS_H
#define PIMBA_CLUSTER_FLEET_METRICS_H

#include <vector>

#include "serving/engine.h"
#include "serving/metrics.h"

namespace pimba {

/** How evenly the router spread requests/tokens over the replicas. */
struct LoadStats
{
    std::vector<uint64_t> requestsPerReplica; ///< completions, per replica
    std::vector<uint64_t> tokensPerReplica;   ///< generated, per replica
    /** max/mean completions across replicas; 1.0 is perfectly balanced,
     *  0.0 when the fleet served nothing. */
    double requestImbalance = 0.0;
    /** max/mean generated tokens across replicas (same convention). */
    double tokenImbalance = 0.0;
};

/** Per-replica load spread of one fleet run. */
LoadStats computeLoadStats(const std::vector<ServingReport> &replicas);

/** Cross-replica KV/state transfer costs of a disaggregated run. */
struct TransferStats
{
    uint64_t transfers = 0;     ///< prefill -> decode hand-offs
    Bytes totalBytes{0.0};      ///< KV/state bytes shipped
    Seconds totalSeconds{0.0};  ///< link seconds across all transfers
    Joules totalEnergyJ{0.0};   ///< link energy across all transfers
    LatencySummary perTransfer; ///< seconds of each hand-off
    /** Mean fraction of a transferred request's TTFT spent on the
     *  link — the disaggregation tax the TTFT percentiles carry. */
    double meanTtftShare = 0.0;
};

} // namespace pimba

#endif // PIMBA_CLUSTER_FLEET_METRICS_H
