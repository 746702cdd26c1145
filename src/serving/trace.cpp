#include "serving/trace.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/logging.h"
#include "serving/step_memo.h"

namespace pimba {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

uint64_t
sampleLength(LengthDistribution dist, uint64_t lo, uint64_t hi,
             Lfsr32 &rng)
{
    if (dist == LengthDistribution::Fixed || hi <= lo)
        return lo;
    uint64_t span = hi - lo + 1;
    uint64_t idx = static_cast<uint64_t>(rng.nextUnit() *
                                         static_cast<double>(span));
    // nextUnit() < 1.0, but the double product can still round up to
    // span (yielding hi + 1); clamp the index into the span.
    return lo + std::min(idx, span - 1);
}

/** Sine amplitude giving the requested peak/trough rate ratio:
 *  (1 + a) / (1 - a) = ptt  =>  a = (ptt - 1) / (ptt + 1). */
double
diurnalAmplitude(double peakToTrough)
{
    return (peakToTrough - 1.0) / (peakToTrough + 1.0);
}

// A decode step sits at most at prompt + output, and the memo costs it
// at its bucket's center.
static_assert(2 * kMaxRequestTokens + kSeqBucket <= kMemoMaxPosition);

std::string
validateLengths(LengthDistribution dist, uint64_t inLo, uint64_t inHi,
                uint64_t outLo, uint64_t outHi, const std::string &where)
{
    if (inLo < 1)
        return where + "inputLen must be >= 1 (requests need a "
                       "non-empty prompt)";
    if (outLo < 1)
        return where + "outputLen must be >= 1 (requests must generate "
                       "a token)";
    const std::pair<uint64_t, const char *> lengths[] = {
        {inLo, "inputLen"},
        {inHi, "inputLenMax"},
        {outLo, "outputLen"},
        {outHi, "outputLenMax"}};
    for (const auto &[len, field] : lengths)
        if (len > kMaxRequestTokens)
            return where + field + " must be <= " +
                   std::to_string(kMaxRequestTokens) + " tokens, got " +
                   std::to_string(len);
    if (dist == LengthDistribution::Uniform) {
        if (inHi != 0 && inHi < inLo)
            return where + "uniform input-length bounds are inverted "
                           "(inputLenMax " +
                   std::to_string(inHi) + " < inputLen " +
                   std::to_string(inLo) + ")";
        if (outHi != 0 && outHi < outLo)
            return where + "uniform output-length bounds are inverted "
                           "(outputLenMax " +
                   std::to_string(outHi) + " < outputLen " +
                   std::to_string(outLo) + ")";
    }
    return "";
}

} // namespace

std::string
validateTraceConfig(const TraceConfig &cfg)
{
    if (!cfg.file.empty()) {
        // Replay: the file's loader validates its own contents; the
        // generation fields are ignored. numRequests < 0 is still
        // nonsense (0 means "all of the file").
        if (cfg.numRequests < 0)
            return "trace: numRequests must be >= 0 when replaying a "
                   "file (0 replays all of it), got " +
                   std::to_string(cfg.numRequests);
        return "";
    }
    if (!(cfg.ratePerSec > 0.0))
        return "trace: ratePerSec must be positive, got " +
               std::to_string(cfg.ratePerSec);
    if (cfg.numRequests < 1)
        return "trace: numRequests must be >= 1, got " +
               std::to_string(cfg.numRequests);
    if (std::string err =
            validateLengths(cfg.lengths, cfg.inputLen, cfg.inputLenMax,
                            cfg.outputLen, cfg.outputLenMax, "trace: ");
        !err.empty())
        return err;
    if (cfg.arrivals == ArrivalProcess::Diurnal) {
        if (!(cfg.diurnal.period > Seconds(0.0)))
            return "trace: diurnal period must be positive seconds, "
                   "got " +
                   std::to_string(cfg.diurnal.period.value());
        if (!(cfg.diurnal.peakToTrough >= 1.0))
            return "trace: diurnal peakToTrough must be >= 1 (peak "
                   "rate over trough rate), got " +
                   std::to_string(cfg.diurnal.peakToTrough);
    }
    if (cfg.arrivals == ArrivalProcess::Mmpp) {
        if (!(cfg.mmpp.burstMultiplier >= 1.0))
            return "trace: mmpp burstMultiplier must be >= 1 (bursts "
                   "add load), got " +
                   std::to_string(cfg.mmpp.burstMultiplier);
        if (!(cfg.mmpp.burstMean > Seconds(0.0)) ||
            !(cfg.mmpp.idleMean > Seconds(0.0)))
            return "trace: mmpp dwell means must be positive seconds "
                   "(burstMeanSec " +
                   std::to_string(cfg.mmpp.burstMean.value()) +
                   ", idleMeanSec " +
                   std::to_string(cfg.mmpp.idleMean.value()) + ")";
    }
    for (size_t i = 0; i < cfg.classes.size(); ++i) {
        const TraceClass &tc = cfg.classes[i];
        std::string where = "trace: class " + std::to_string(i) +
                            (tc.name.empty() ? "" : " (" + tc.name + ")") +
                            ": ";
        if (tc.name.empty())
            return where + "needs a name (labels the tenant in docs "
                           "and telemetry)";
        if (!(tc.weight > 0.0))
            return where + "weight must be positive, got " +
                   std::to_string(tc.weight);
        if (std::string err =
                validateLengths(tc.lengths, tc.inputLen, tc.inputLenMax,
                                tc.outputLen, tc.outputLenMax, where);
            !err.empty())
            return err;
    }
    return "";
}

ArrivalStream::ArrivalStream(const TraceConfig &cfg_)
    : cfg(cfg_),
      // Separate streams so changing the length distribution does not
      // perturb the arrival times (and vice versa); the class stream is
      // separate again so adding classes never shifts the lengths an
      // existing class samples.
      arrivalRng(cfg_.seed),
      lengthRng(cfg_.seed ^ 0x9E3779B9u),
      classRng(cfg_.seed ^ 0x7F4A7C15u)
{
    if (std::string err = validateTraceConfig(cfg); !err.empty())
        PIMBA_FATAL(err);
    PIMBA_ASSERT(cfg.file.empty(),
                 "ArrivalStream generates traces; replay files go "
                 "through openArrivalSource() (serving/trace_io.h)");
    diurnalAmp = diurnalAmplitude(cfg.diurnal.peakToTrough);
    double weightSum = 0.0;
    for (const TraceClass &tc : cfg.classes) {
        weightSum += tc.weight;
        classCdf.push_back(weightSum);
    }
    for (double &w : classCdf)
        w /= weightSum;
}

double
ArrivalStream::sampleExp(double rate)
{
    // Inverse-CDF exponential; clamp the uniform away from 1.0 so the
    // log stays finite.
    double u = std::min(arrivalRng.nextUnit(), 1.0 - 1e-12);
    return -std::log(1.0 - u) / rate;
}

void
ArrivalStream::advanceClock()
{
    switch (cfg.arrivals) {
    case ArrivalProcess::Fixed:
        clock.add(1.0 / cfg.ratePerSec);
        return;
    case ArrivalProcess::Poisson:
        clock.add(sampleExp(cfg.ratePerSec));
        return;
    case ArrivalProcess::Diurnal: {
        // Lewis-Shedler thinning: candidates arrive at the curve's
        // peak rate; each is accepted with probability rate(t)/peak,
        // leaving a non-homogeneous Poisson process whose long-run
        // mean is exactly ratePerSec.
        double peak = cfg.ratePerSec * (1.0 + diurnalAmp);
        for (;;) {
            clock.add(sampleExp(peak));
            double phase = kTwoPi * clock.value() /
                           cfg.diurnal.period.value();
            double rateNow =
                cfg.ratePerSec * (1.0 + diurnalAmp * std::sin(phase));
            if (arrivalRng.nextUnit() * peak <= rateNow)
                return;
        }
    }
    case ArrivalProcess::Mmpp: {
        // Alternate exponential dwells between the baseline and burst
        // regimes. A candidate gap beyond the dwell's end is discarded
        // and redrawn in the next regime — valid because exponential
        // inter-arrivals are memoryless.
        for (;;) {
            if (dwellLeft < 0.0) {
                double mean = inBurst ? cfg.mmpp.burstMean.value()
                                      : cfg.mmpp.idleMean.value();
                dwellLeft = sampleExp(1.0 / mean);
            }
            double rate = inBurst
                              ? cfg.ratePerSec * cfg.mmpp.burstMultiplier
                              : cfg.ratePerSec;
            double cand = sampleExp(rate);
            if (cand <= dwellLeft) {
                clock.add(cand);
                dwellLeft -= cand;
                return;
            }
            clock.add(dwellLeft);
            dwellLeft = -1.0;
            inBurst = !inBurst;
        }
    }
    }
    PIMBA_PANIC("unhandled arrival process");
}

bool
ArrivalStream::next(Request &out)
{
    if (emitted >= cfg.numRequests)
        return false;
    Request r;
    r.id = static_cast<uint64_t>(emitted);
    // The first request opens the trace at t = 0 with no draw; only
    // the gaps between requests are stochastic.
    if (emitted > 0)
        advanceClock();
    r.arrival = Seconds(clock.value());
    if (classCdf.empty()) {
        r.inputLen = sampleLength(cfg.lengths, cfg.inputLen,
                                  cfg.inputLenMax, lengthRng);
        r.outputLen = sampleLength(cfg.lengths, cfg.outputLen,
                                   cfg.outputLenMax, lengthRng);
    } else {
        double u = classRng.nextUnit();
        size_t k = static_cast<size_t>(
            std::lower_bound(classCdf.begin(), classCdf.end(), u) -
            classCdf.begin());
        k = std::min(k, classCdf.size() - 1);
        const TraceClass &tc = cfg.classes[k];
        r.classId = static_cast<uint32_t>(k);
        r.inputLen = sampleLength(tc.lengths, tc.inputLen,
                                  tc.inputLenMax, lengthRng);
        r.outputLen = sampleLength(tc.lengths, tc.outputLen,
                                   tc.outputLenMax, lengthRng);
    }
    PIMBA_ASSERT(r.outputLen >= 1, "sampled zero output length");
    ++emitted;
    out = r;
    return true;
}

std::vector<Request>
generateTrace(const TraceConfig &cfg)
{
    ArrivalStream stream(cfg); // validates; rejects replay-file configs
    std::vector<Request> trace;
    trace.reserve(static_cast<size_t>(cfg.numRequests));
    Request r;
    while (stream.next(r))
        trace.push_back(r);
    return trace;
}

} // namespace pimba
