/**
 * @file
 * Synthetic request-trace generators. Arrival processes: Poisson (the
 * standard open-loop serving-traffic model), fixed-rate, diurnal (a
 * sinusoidal day/night rate curve sampled by Lewis-Shedler thinning),
 * and MMPP (a two-state Markov-modulated Poisson process modeling
 * flash-crowd bursts). Length distributions: fixed and uniform, either
 * trace-wide or per request class (multi-tenant mixes). All randomness
 * flows through the repo's seeded Lfsr32, so every trace is a pure
 * function of its TraceConfig — the same config always reproduces the
 * same trace.
 *
 * Traces can be materialized eagerly (generateTrace) or consumed one
 * request at a time through the ArrivalSource interface (ArrivalStream)
 * — the shape the fleet's bounded-memory replay path needs, where the
 * whole trace must never be resident at once. The arrival clock uses
 * compensated (Kahan) summation: a naive running double accumulates
 * rounding error over millions of inter-arrival increments.
 */

#ifndef PIMBA_SERVING_TRACE_H
#define PIMBA_SERVING_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/lfsr.h"
#include "core/names.h"
#include "serving/request.h"

namespace pimba {

/** Inter-arrival process of the synthetic trace. */
enum class ArrivalProcess
{
    Poisson, ///< exponential inter-arrival times at the given mean rate
    Fixed,   ///< deterministic 1/rate spacing
    Diurnal, ///< Poisson with a sinusoidal rate curve (day/night load)
    Mmpp,    ///< 2-state Markov-modulated Poisson (baseline + bursts)
};

inline constexpr Named<ArrivalProcess> kArrivalProcessNames[] = {
    {ArrivalProcess::Poisson, "poisson"},
    {ArrivalProcess::Fixed, "fixed"},
    {ArrivalProcess::Diurnal, "diurnal"},
    {ArrivalProcess::Mmpp, "mmpp"},
};

/** Prompt/output length distribution. */
enum class LengthDistribution
{
    Fixed,   ///< every request uses inputLen / outputLen exactly
    Uniform, ///< integer-uniform in [len, lenMax] per request
};

inline constexpr Named<LengthDistribution> kLengthDistributionNames[] = {
    {LengthDistribution::Fixed, "fixed"},
    {LengthDistribution::Uniform, "uniform"},
};

/** Sinusoidal rate curve of ArrivalProcess::Diurnal: the instantaneous
 *  rate swings around ratePerSec (which stays the long-run mean) with
 *  peak/trough ratio @c peakToTrough once per @c period. */
struct DiurnalShape
{
    Seconds period{3600.0};   ///< one full day/night cycle
    double peakToTrough = 4.0; ///< peak rate / trough rate (>= 1)
};

/** Burst regime of ArrivalProcess::Mmpp: exponential dwell times
 *  alternate between a baseline state at ratePerSec and a burst state
 *  at ratePerSec x burstMultiplier (flash crowds). */
struct MmppBursts
{
    double burstMultiplier = 8.0; ///< burst rate / baseline rate (>= 1)
    Seconds burstMean{5.0};       ///< mean burst dwell
    Seconds idleMean{45.0};       ///< mean baseline dwell
};

/** Longest prompt, and longest output, one request may have. A cache
 *  position then stays inside the step memo key's 32 bits
 *  (kMemoMaxPosition, serving/step_memo.h); the trace validator and
 *  the replay-file loader reject longer requests. */
inline constexpr uint64_t kMaxRequestTokens = uint64_t{1} << 30;

/** One tenant class of a multi-class trace: a sampling weight plus its
 *  own length distribution. Requests carry the class index sampled for
 *  them (Request::classId). */
struct TraceClass
{
    std::string name;          ///< label for docs/telemetry
    double weight = 1.0;       ///< relative sampling weight (> 0)
    LengthDistribution lengths = LengthDistribution::Fixed;
    uint64_t inputLen = 2048;  ///< fixed value or uniform lower bound
    uint64_t outputLen = 2048; ///< fixed value or uniform lower bound
    uint64_t inputLenMax = 0;  ///< uniform upper bound (0: == inputLen)
    uint64_t outputLenMax = 0; ///< uniform upper bound (0: == outputLen)
};

/** Full description of a synthetic trace. */
struct TraceConfig
{
    ArrivalProcess arrivals = ArrivalProcess::Poisson;
    double ratePerSec = 1.0; ///< mean (Diurnal) / baseline (Mmpp) rate
    int numRequests = 64;

    LengthDistribution lengths = LengthDistribution::Fixed;
    uint64_t inputLen = 2048;    ///< fixed value or uniform lower bound
    uint64_t outputLen = 2048;   ///< fixed value or uniform lower bound
    uint64_t inputLenMax = 0;    ///< uniform upper bound (0: == inputLen)
    uint64_t outputLenMax = 0;   ///< uniform upper bound (0: == outputLen)

    DiurnalShape diurnal; ///< ArrivalProcess::Diurnal only
    MmppBursts mmpp;      ///< ArrivalProcess::Mmpp only

    /** Tenant classes; empty means one implicit class using the
     *  trace-wide length fields above (and no class-RNG draws, so
     *  classless configs reproduce their historical traces). */
    std::vector<TraceClass> classes;

    /** Non-empty: replay this pimba-trace-v1 file instead of
     *  generating (serving/trace_io.h). Generation fields are then
     *  ignored except numRequests = 0 meaning "all of the file". */
    std::string file;

    uint32_t seed = 0x5EED0001u; ///< LFSR seed; same seed, same trace
};

/**
 * Compensated (Kahan) accumulator for the arrival clock: adding
 * millions of small inter-arrival gaps to a naive running double loses
 * low-order bits each step and the trace tail drifts from the analytic
 * mean. The compensation term recaptures the rounding residue, keeping
 * the clock exact to within one ulp of the true sum.
 */
class KahanClock
{
  public:
    void
    add(double gap)
    {
        double y = gap - comp;
        double t = total + y;
        comp = (t - total) - y;
        total = t;
    }

    double value() const { return total; }

  private:
    double total = 0.0;
    double comp = 0.0;
};

/**
 * Pull-based request producer in non-decreasing arrival order. The
 * fleet's replay path consumes one request at a time so its memory
 * stays bounded independently of trace length; eager callers collect
 * into a vector (generateTrace).
 */
class ArrivalSource
{
  public:
    virtual ~ArrivalSource() = default;
    /** Produce the next request into @p out. Returns false when the
     *  source is exhausted (@p out is then left untouched). */
    virtual bool next(Request &out) = 0;
};

/** Streaming generator: the trace described by a TraceConfig, one
 *  request at a time. Identical requests to generateTrace(), without
 *  the O(requests) vector. */
class ArrivalStream : public ArrivalSource
{
  public:
    /** An invalid config (validateTraceConfig) or one naming a replay
     *  file (this is the generator) is a fatal error. */
    explicit ArrivalStream(const TraceConfig &cfg);

    bool next(Request &out) override;

    /** Requests produced so far. */
    int produced() const { return emitted; }

  private:
    /** Advance the clock by one inter-arrival gap. */
    void advanceClock();
    /** One exponential variate at @p rate from the arrival stream. */
    double sampleExp(double rate);

    TraceConfig cfg;
    Lfsr32 arrivalRng;
    Lfsr32 lengthRng;
    Lfsr32 classRng;
    std::vector<double> classCdf; ///< cumulative weights, normalized
    KahanClock clock;
    int emitted = 0;
    double diurnalAmp = 0.0;  ///< sine amplitude from peakToTrough
    bool inBurst = false;     ///< MMPP state (starts at baseline)
    double dwellLeft = -1.0;  ///< MMPP time left in state (< 0: draw)
};

/** ArrivalSource over an in-memory trace, which must already be in
 *  non-decreasing arrival order. Does not own the vector. */
class VectorArrivalSource : public ArrivalSource
{
  public:
    explicit VectorArrivalSource(const std::vector<Request> &trace_)
        : trace(&trace_)
    {}

    bool
    next(Request &out) override
    {
        if (idx >= trace->size())
            return false;
        out = (*trace)[idx++];
        return true;
    }

  private:
    const std::vector<Request> *trace;
    size_t idx = 0;
};

/**
 * Validate @p cfg. Returns the empty string when it is serveable, else
 * one actionable message naming the bad field (non-positive rate, empty
 * trace, zero-length prompts/outputs, inverted uniform bounds, bad
 * diurnal/MMPP shape, a bad tenant class).
 */
std::string validateTraceConfig(const TraceConfig &cfg);

/**
 * Generate the trace described by @p cfg: requests with ids 0..n-1 in
 * non-decreasing arrival order starting at time 0. An invalid config
 * (see validateTraceConfig) or one naming a replay file (use
 * openArrivalSource() from serving/trace_io.h) is a fatal error.
 */
std::vector<Request> generateTrace(const TraceConfig &cfg);

} // namespace pimba

#endif // PIMBA_SERVING_TRACE_H
