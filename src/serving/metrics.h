/**
 * @file
 * Fleet-level serving metrics: TTFT/TPOT/end-to-end latency percentile
 * summaries, sustained token throughput, and goodput under a per-request
 * SLO (a request counts toward goodput only if both its TTFT and its
 * TPOT meet the target, the criterion used by request-level serving
 * studies). Computed from retained records (computeMetrics) or folded
 * in one completion at a time (StreamingMetrics).
 */

#ifndef PIMBA_SERVING_METRICS_H
#define PIMBA_SERVING_METRICS_H

#include <vector>

#include "core/sketch.h"
#include "serving/request.h"

namespace pimba {

/** Per-request latency service-level objective. */
struct SloConfig
{
    Seconds ttft{1.0};  ///< time to first token
    Seconds tpot{0.02}; ///< time per subsequent token
};

/** Percentile summary of one latency population (seconds). */
struct LatencySummary
{
    /** Samples the summary covers — percentiles of a population that
     *  never says how large it is are easy to over-trust. */
    uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/** Summarize a sample vector into count/mean/min/p50/p95/p99/max. An
 *  empty sample vector (e.g. a saturated replica that completed
 *  nothing) yields the all-zero summary, never UB. */
LatencySummary summarizeLatency(const std::vector<double> &samples);

/** The same summary out of a sketch: percentiles are estimates,
 *  count/mean/min/max exact. */
LatencySummary summarizeSketch(const QuantileSketch &s);

/** Fleet metrics over one engine run. */
struct ServingMetrics
{
    uint64_t requests = 0;        ///< completed requests
    uint64_t generatedTokens = 0; ///< output tokens produced
    Seconds makespan;             ///< first arrival to last completion
    TokensPerSecond tokensPerSec; ///< sustained generation throughput
    RequestsPerSecond requestsPerSec; ///< completion rate
    RequestsPerSecond goodput; ///< SLO-meeting completions per second
    uint64_t sloViolations = 0;   ///< completions missing the SLO
    /** Requests cancelled by deadline timers (docs/control-plane.md).
     *  Cancelled requests emit no completion record: they are outside
     *  every percentile population above and can never count toward
     *  goodput. Zero unless the control plane posts deadlines. */
    uint64_t cancelledRequests = 0;
    /** Tokens computed for requests that were later cancelled (prefill
     *  chunks plus locally-decoded output) — compute billed but never
     *  delivered. Eviction recompute is tracked separately (the work is
     *  redone, not discarded) in ServingReport::recomputedTokens. */
    uint64_t wastedTokens = 0;
    LatencySummary ttft;
    /** TPOT over requests with >= 2 output tokens only: single-token
     *  requests have no inter-token gap and would skew the percentiles
     *  toward zero. They still count for the SLO (trivially compliant —
     *  there is no decode step to miss the per-token target). */
    LatencySummary tpot;
    LatencySummary latency;
    /** Arrival-to-first-admission wait (seconds) — the part of TTFT the
     *  scheduler/router controls, as opposed to prefill compute. */
    LatencySummary queueing;
    /** Per-request eviction counts (dimensionless, summarized like a
     *  latency population so the tail is visible). */
    LatencySummary preemptions;
};

/** Aggregate completed-request records into fleet metrics. */
ServingMetrics computeMetrics(const std::vector<CompletedRequest> &done,
                              Seconds makespan, const SloConfig &slo);

/**
 * True if at least @p fraction of the completed requests met the SLO:
 * the criterion the saturation and planner searches test against.
 * Judged on the per-request compliance fraction, not on goodput vs the
 * offered rate, whose makespan denominator includes the post-arrival
 * drain of the final batch. False when nothing completed.
 */
bool sustainsSlo(const ServingMetrics &m, double fraction = 0.95);

/**
 * Receiver of retired requests: an engine calls observe() once per
 * completion of a session begun with it (ServingEngine::begin()).
 * StreamingMetrics folds them into sketches; a disaggregated fleet
 * turns them into hand-offs and fleet-level records.
 */
class CompletionSink
{
  public:
    virtual void observe(const CompletedRequest &c) = 0;

  protected:
    ~CompletionSink() = default;
};

/**
 * Streaming alternative to computeMetrics(): per-request records are
 * folded into quantile sketches (core/sketch.h) one at a time, so the
 * collector's memory footprint is O(sketch buckets) instead of
 * O(requests) sample vectors — the shape million-request replays need.
 * Percentiles come out within the sketch's relative accuracy of the
 * exact summaries; count, mean, min, max, throughput, goodput and
 * SLO-violation counts are exact.
 */
class StreamingMetrics final : public CompletionSink
{
  public:
    explicit StreamingMetrics(
        SloConfig slo = {},
        double accuracy = QuantileSketch::kDefaultAccuracy);

    /** Fold one completion record in. */
    void observe(const CompletedRequest &c) override;

    /** Completions observed so far. */
    uint64_t observed() const { return requests; }

    /** Completion instant (arrival + latency) of the latest-finishing
     *  observation — exact, so a streamed fleet run derives the same
     *  makespan the record-retaining path computes from its sorted
     *  completion list. Zero before any observation. */
    Seconds lastFinishTime() const { return lastFinish; }

    /** Snapshot the metrics over @p makespan. Identical field layout
     *  to computeMetrics() output: percentile members carry sketch
     *  estimates, everything else is exact. */
    ServingMetrics finalize(Seconds makespan) const;

  private:
    SloConfig slo;
    uint64_t requests = 0;
    uint64_t generatedTokens = 0;
    uint64_t good = 0;
    Seconds lastFinish{0.0};
    QuantileSketch ttft;
    QuantileSketch tpot;
    QuantileSketch latency;
    QuantileSketch queueing;
    QuantileSketch preemptions;
};

} // namespace pimba

#endif // PIMBA_SERVING_METRICS_H
