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
 *
 * Storage: each event is one fixed-size record (80 bytes) holding its
 * phase, pid, tid, timestamp and duration, its name and category as
 * interned ids, and up to kMaxArgs numeric args keyed by interned ids.
 * The tracer is an external merge sort, so its event memory stays
 * bounded at any trace length. Records collect in one in-memory run
 * of at most kRunEvents; a full run is sorted by (timestamp, insertion
 * index) and appended to an unlinked temporary spill file. Rendering
 * sorts the in-memory tail the same way and k-way merges it with the
 * spilled runs, ties going to the earlier run: the result is the
 * stable timestamp sort of every record. Metadata and interned strings
 * stay in memory. writeFile() streams the document to disk through a
 * buffer of about kFlushBytes instead of building it as one string.
 */

#ifndef PIMBA_OBS_TRACER_H
#define PIMBA_OBS_TRACER_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
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

/** Chrome-trace-event recorder (see file comment for the layout and
 *  the storage). */
class Tracer
{
  public:
    /// One named number attached to an event.
    struct Arg
    {
        std::string_view key;
        double value;
    };
    /// Small named-number argument list attached to an event.
    using Args = std::initializer_list<Arg>;
    /// Arguments one event can carry; more is a caller bug (panics).
    static constexpr size_t kMaxArgs = 3;

    Tracer() = default;
    /// Not copyable: the intern index holds views of this tracer's own
    /// strings.
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /// "M" process_name metadata for @p pid.
    void processName(int pid, std::string_view name);
    /// "M" thread_name metadata for (@p pid, @p tid).
    void threadName(int pid, int64_t tid, std::string_view name);

    /// "X" complete slice of @p dur at @p ts.
    void complete(int pid, int64_t tid, Seconds ts, Seconds dur,
                  std::string_view name, std::string_view cat,
                  Args args = {});
    /// "B" begin; every begin must be closed by end() on the same
    /// (pid, tid), nested like a call stack.
    void begin(int pid, int64_t tid, Seconds ts, std::string_view name,
               std::string_view cat, Args args = {});
    /// "E" end of the innermost open begin() on (pid, tid).
    void end(int pid, int64_t tid, Seconds ts);
    /// "i" instant (thread scope).
    void instant(int pid, int64_t tid, Seconds ts, std::string_view name,
                 std::string_view cat, Args args = {});
    /// "C" counter sample; each @p name renders as a counter track.
    void counter(int pid, Seconds ts, std::string_view name,
                 double value);

    /// Events recorded so far (name metadata not counted).
    size_t eventCount() const { return count; }

    /// The trace document: {"traceEvents": [...], "displayTimeUnit"}.
    /// Metadata first, then events stably sorted by timestamp.
    std::string renderJson() const;

    /// renderJson()'s bytes to @p path, streamed through a buffer of
    /// about kFlushBytes; false when the file cannot be written.
    bool writeFile(const std::string &path) const;

    /// Buffered output writeFile() hands to the file at a time.
    static constexpr size_t kFlushBytes = size_t{1} << 20;

    /// Events held in memory before they are sorted and spilled as one
    /// run (about 2.6 MB of records).
    static constexpr size_t kRunEvents = size_t{1} << 15;

  private:
    struct Event
    {
        double tsUs = 0.0;  ///< microseconds of simulated time
        double durUs = 0.0; ///< "X" only
        int64_t tid = 0;
        int32_t pid = 0;
        uint32_t name = 0; ///< interned; 0 renders no "name"
        uint32_t cat = 0;  ///< interned; 0 renders no "cat"
        uint32_t argKey[kMaxArgs] = {}; ///< interned
        char ph = 'X';
        uint8_t argCount = 0;
        double argValue[kMaxArgs] = {};
    };
    static_assert(sizeof(Event) <= 80,
                  "docs/observability.md quotes 80 bytes per event");

    /// "M" process_name (tid unused) or thread_name record.
    struct Metadata
    {
        int pid = 0;
        int64_t tid = 0;
        bool thread = false;
        uint32_t name = 0; ///< interned label
    };

    /// Events per chunk of the in-memory run; chunks are allocated as
    /// the first run grows and reused by later runs.
    static constexpr size_t kChunkEvents = 4096;
    static_assert(kRunEvents % kChunkEvents == 0);
    /// Records the merge buffers from the spill file at a time, split
    /// evenly over the runs but at least kMinReadEvents per run.
    static constexpr size_t kMergeEvents = 8192;
    static constexpr size_t kMinReadEvents = 64;

    /// Sort key of one in-memory record: (timestamp, run-local index)
    /// orders the run as a stable sort by timestamp would.
    struct Key
    {
        double tsUs;
        uint32_t index;
        bool operator<(const Key &o) const
        {
            return tsUs < o.tsUs || (tsUs == o.tsUs && index < o.index);
        }
    };

    struct CloseFile
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };

    uint32_t intern(std::string_view s);
    Event &push(char ph, int pid, int64_t tid, Seconds ts,
                std::string_view name, std::string_view cat, Args args);
    /// Record @p i of the in-memory run.
    const Event &at(size_t i) const
    {
        return chunks[i / kChunkEvents][i % kChunkEvents];
    }
    /// Events in the in-memory run.
    size_t tailCount() const { return count - runs * kRunEvents; }
    /// Sets @p keys to the in-memory run's keys, sorted.
    void sortTail(std::vector<Key> &keys) const;
    /// Sorts the full in-memory run onto the end of the spill file and
    /// empties the run; a failed spill is fatal.
    void spillRun();
    /// Appends the document to @p out. With @p file, hands @p out to
    /// it whenever it passes kFlushBytes (and clears it). Returns false
    /// when such a write fails or a spilled run cannot be read back
    /// (the document is then truncated).
    bool emit(std::string &out, std::FILE *file) const;

    /// The in-memory run, in insertion order.
    std::vector<std::unique_ptr<Event[]>> chunks;
    size_t count = 0; ///< events recorded (insertion order)
    size_t runs = 0;  ///< full runs in the spill file, in order
    /// Sorted runs of kRunEvents records each, back to back; created
    /// with the first spill and deleted by the system once closed.
    std::unique_ptr<std::FILE, CloseFile> spill;
    /// spillRun()'s scratch, kept so that later spills allocate
    /// nothing: the run's sorted keys and a block of its records in
    /// that order.
    std::vector<Key> spillKeys;
    std::vector<Event> spillBlock;
    std::vector<Metadata> metadata;
    /// Interned strings by id (id 0 is the empty string); a deque, so
    /// the views @c ids keys on never move.
    std::deque<std::string> texts = {std::string()};
    std::unordered_map<std::string_view, uint32_t> ids;
};

} // namespace pimba

#endif // PIMBA_OBS_TRACER_H
