/**
 * @file
 * Canonical open-loop Poisson workload of the serving and goodput
 * regression tests. Also defines the saturation criterion that the
 * saturation and planner scenarios search against: a system sustains
 * a rate when (nearly) every request meets the SLO — judged on the
 * per-request compliance fraction, not on goodput vs the offered rate,
 * whose makespan denominator includes the post-arrival drain of the
 * final batch.
 */

#ifndef PIMBA_SERVING_WORKLOAD_H
#define PIMBA_SERVING_WORKLOAD_H

#include "serving/engine.h"
#include "serving/trace.h"

namespace pimba {

/** Shape of the canonical open-loop experiment. */
struct OpenLoopWorkload
{
    int numRequests = 64;
    uint64_t inputLen = 512;
    uint64_t outputLen = 256;
    /** Nonzero switches lengths to integer-uniform in [len, lenMax];
     *  the default 0 keeps the canonical fixed-length workload. Length
     *  variance is what separates SJF from FCFS. */
    uint64_t inputLenMax = 0;
    uint64_t outputLenMax = 0;
    int maxBatch = 64;
    uint32_t seed = 0x5EED0001u;
    SchedulerPolicy policy = SchedulerPolicy::FCFS;
    /** GPU<->PIM execution mode of the serving system under test. */
    ExecutionMode executionMode = ExecutionMode::Blocked;
};

/** Serve @p w at Poisson rate @p rate on @p kind, full report. */
ServingReport servePoissonReport(SystemKind kind,
                                 const ModelConfig &model, double rate,
                                 const OpenLoopWorkload &w = {});

/** Serve @p w at Poisson rate @p rate on @p kind and report metrics. */
ServingMetrics servePoisson(SystemKind kind, const ModelConfig &model,
                            double rate,
                            const OpenLoopWorkload &w = {});

/**
 * True if at least @p fraction of the completed requests met the SLO —
 * the saturation test of the saturation and planner scenarios.
 */
bool sustainsSlo(const ServingMetrics &m, double fraction = 0.95);

} // namespace pimba

#endif // PIMBA_SERVING_WORKLOAD_H
