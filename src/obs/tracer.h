/**
 * @file
 * Event tracer for the observability subsystem: records per-request
 * lifecycle events and per-iteration phase slices from the serving
 * engine and the cluster fleet, and exports them as Chrome trace-event
 * JSON (the `traceEvents` array format) loadable in Perfetto or
 * chrome://tracing.
 *
 * Track layout convention (docs/observability.md):
 *
 *  - pid: one "process" per engine run — a replica in a fleet, or one
 *    (system, policy, mode, rate) run of a serving study. pid 0 is
 *    reserved for fleet-global tracks (the interconnect).
 *  - tid: tracks inside a process. The engine uses tid 1 for the
 *    iteration slices, tids 2/3/4 for the gpu/pim/sync phase lanes
 *    (overlapped mode runs gpu and pim concurrently, so they need
 *    separate lanes), and one lane per request above
 *    kRequestLaneBase.
 *
 * The tracer itself is a passive recorder: the zero-overhead-when-
 * disabled guarantee lives at the call sites, which hold a `Tracer *`
 * and skip every recording (and every phase-decomposition lookup)
 * when it is null. Timestamps are microseconds of simulated time.
 *
 * Event kinds map 1:1 onto trace-event phases: complete() -> "X",
 * begin()/end() -> "B"/"E" (must nest per (pid, tid)), instant() ->
 * "i", counter() -> "C", and the process/thread name metadata -> "M".
 * renderJson() emits metadata first, then all events stably sorted by
 * timestamp, so the output is globally monotonic — the property the
 * CI trace validator (tools/check_trace.py) checks.
 */

#ifndef PIMBA_OBS_TRACER_H
#define PIMBA_OBS_TRACER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/units.h"

namespace pimba {

/// Engine-internal trace tracks (tids) within one engine's pid.
constexpr int kTraceIterTid = 1; ///< iteration slices
constexpr int kTraceGpuTid = 2;  ///< GPU phase of each substep
constexpr int kTracePimTid = 3;  ///< PIM phase of each substep
constexpr int kTraceSyncTid = 4; ///< GPU<->PIM synchronization phase

/// First tid of the per-request lanes (below it: engine phase tracks).
constexpr int kRequestLaneBase = 100;

/// Lane tid of one request id (one Perfetto track per request). Trace
/// tids are 64-bit so every id a pimba-trace-v1 file can carry below
/// 2^63 - kRequestLaneBase maps to its own exact, positive lane.
constexpr int64_t
requestLane(uint64_t id)
{
    return kRequestLaneBase + static_cast<int64_t>(id);
}

/** Chrome-trace-event recorder (see file comment for the layout). */
class Tracer
{
  public:
    /// Small named-number argument list attached to an event.
    using Args = std::vector<std::pair<std::string, double>>;

    /// "M" process_name metadata for @p pid.
    void processName(int pid, const std::string &name);
    /// "M" thread_name metadata for (@p pid, @p tid).
    void threadName(int pid, int64_t tid, const std::string &name);

    /// "X" complete slice of @p dur at @p ts.
    void complete(int pid, int64_t tid, Seconds ts, Seconds dur,
                  const std::string &name, const std::string &cat,
                  Args args = {});
    /// "B" begin; every begin must be closed by end() on the same
    /// (pid, tid), nested like a call stack.
    void begin(int pid, int64_t tid, Seconds ts, const std::string &name,
               const std::string &cat, Args args = {});
    /// "E" end of the innermost open begin() on (pid, tid).
    void end(int pid, int64_t tid, Seconds ts);
    /// "i" instant (thread scope).
    void instant(int pid, int64_t tid, Seconds ts, const std::string &name,
                 const std::string &cat, Args args = {});
    /// "C" counter sample; each @p name renders as a counter track.
    void counter(int pid, Seconds ts, const std::string &name,
                 double value);

    /// Events recorded so far (name metadata not counted).
    size_t eventCount() const { return events.size(); }

    /// The trace document: {"traceEvents": [...], "displayTimeUnit"}.
    /// Metadata first, then events stably sorted by timestamp.
    std::string renderJson() const;

    /// renderJson() to @p path; false when the file cannot be written.
    bool writeFile(const std::string &path) const;

  private:
    struct Event
    {
        char ph = 'X';
        int pid = 0;
        int64_t tid = 0;
        double tsUs = 0.0;  ///< microseconds of simulated time
        double durUs = 0.0; ///< "X" only
        std::string name;
        std::string cat;
        std::string argsJson; ///< pre-rendered {"k":v,...}, may be empty
    };

    void push(Event e);
    static std::string renderArgs(const Args &args);

    std::vector<Event> events;   ///< non-metadata, insertion order
    std::vector<Event> metadata; ///< "M" events
};

} // namespace pimba

#endif // PIMBA_OBS_TRACER_H
