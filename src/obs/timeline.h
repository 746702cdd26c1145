/**
 * @file
 * Periodic timeline sampler: records queue depth, outstanding tokens,
 * resident batch size, and block-pool utilization per engine (replica)
 * at a configurable simulated-time cadence, and renders the series as
 * CSV or JSON — the observed load/SLO signal series the roadmap's
 * autoscaler studies will train and act on.
 *
 * Like the tracer, the sampler is passive: call sites hold a
 * `TimelineSampler *` and skip sampling entirely when it is null, so
 * a disabled timeline costs nothing on the engine's hot path. Each
 * engine registers one track (a label + dense id) and the sampler
 * gates recording per track, so interleaved fleets sample cleanly on
 * one shared sampler.
 */

#ifndef PIMBA_OBS_TIMELINE_H
#define PIMBA_OBS_TIMELINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/units.h"

namespace pimba {

/** One sampled point of one track. */
struct TimelineRow
{
    int track = 0;           ///< dense track id (registration order)
    Seconds time;            ///< simulated time of the sample
    uint64_t queueDepth = 0; ///< waiting + resident requests
    uint64_t outstandingTokens = 0; ///< unserved prompt+output tokens
    uint64_t running = 0;    ///< requests resident in the batch
    double blockUtil = 0.0;  ///< fraction of the block pool allocated
};

/** Cadence-gated multi-track load sampler (see file comment). */
class TimelineSampler
{
  public:
    /** @p interval_ minimum simulated time between samples per track
     *  (non-positive records every offered sample). */
    explicit TimelineSampler(Seconds interval_) : interval(interval_) {}

    /** Register a track (an engine / replica). @p label lands in the
     *  rendered output; returns the dense track id to sample with. */
    int registerTrack(const std::string &label);

    /** Whether sample() at @p now would record on @p track: callers
     *  with costly probes check this first and skip them otherwise. */
    bool due(int track, Seconds now) const;

    /** Offer one sample for @p track at simulated time @p now; it is
     *  recorded when the track's cadence is due. Engines call this
     *  once per iteration — the gate keeps the series at the
     *  configured density regardless of iteration length. */
    void sample(int track, Seconds now, uint64_t queueDepth,
                uint64_t outstandingTokens, uint64_t running,
                double blockUtil);

    /** Record unconditionally (run-final state, cadence ignored). */
    void record(int track, Seconds now, uint64_t queueDepth,
                uint64_t outstandingTokens, uint64_t running,
                double blockUtil);

    const std::vector<TimelineRow> &rows() const { return samples; }
    size_t trackCount() const { return labels.size(); }

    /** time_s,track,label,queue_depth,outstanding_tokens,running,
     *  block_util — one row per sample, recording order. */
    std::string renderCsv() const;
    /** The same series as a JSON array of objects. */
    std::string renderJson() const;

  private:
    Seconds interval;
    std::vector<std::string> labels;
    std::vector<Seconds> nextDue; ///< per track
    std::vector<TimelineRow> samples;
};

} // namespace pimba

#endif // PIMBA_OBS_TIMELINE_H
