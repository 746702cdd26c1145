/**
 * @file
 * Discrete-event calendar: the min-heap the cluster fleet pumps instead
 * of broadcasting advanceTo() per arrival. Entries are ordered by
 * (time, class, tiebreak, insertion sequence):
 *
 *  - time      — the simulated instant the event is due;
 *  - class     — event kind priority at equal times (the fleet's event
 *                kinds, in class order: warm-up, arrival, hand-off,
 *                deadline, scale tick — so arrivals dispatch before
 *                hand-offs, the lockstep loop's `arrival <= handoff`
 *                rule);
 *  - tiebreak  — caller-chosen order within a class (e.g. request id, so
 *                simultaneous hand-offs dispatch by id);
 *  - sequence  — automatic insertion counter, making equal keys FIFO.
 *
 * The total order is strict, so a calendar fed the same events always
 * pops the same sequence — determinism is structural, not incidental.
 */

#ifndef PIMBA_CORE_EVENT_QUEUE_H
#define PIMBA_CORE_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/units.h"

namespace pimba {

/** One scheduled entry of an EventQueue. */
template <typename Payload>
struct CalendarEntry
{
    Seconds time{0.0};
    uint32_t klass = 0; ///< lower dispatches first at equal time
    uint64_t tie = 0;   ///< within-class order at equal time
    uint64_t seq = 0;   ///< insertion order; final FIFO tiebreak
    Payload payload{};
};

/**
 * Min-first priority-queue calendar over CalendarEntry<Payload>. A
 * plain binary heap on a vector (std::push_heap/std::pop_heap) rather
 * than std::priority_queue so pop() can move the payload out.
 */
template <typename Payload>
class EventQueue
{
  public:
    /** Schedule @p payload at @p time. Events never run backward: a
     *  push earlier than the last pop would mean the simulation already
     *  committed past it, so it is a fatal logic error. */
    void
    push(Seconds time, uint32_t klass, uint64_t tie, Payload payload)
    {
        PIMBA_ASSERT(!(time < lastPopped),
                     "event scheduled at ", time.value(),
                     "s, before the already-dispatched ",
                     lastPopped.value(), "s");
        heap.push_back(CalendarEntry<Payload>{time, klass, tie, nextSeq++,
                                              std::move(payload)});
        std::push_heap(heap.begin(), heap.end(), Later{});
    }

    bool empty() const { return heap.empty(); }
    size_t size() const { return heap.size(); }

    /** Due time of the earliest event; +inf on an empty calendar. */
    Seconds
    nextTime() const
    {
        return heap.empty()
                   ? Seconds(std::numeric_limits<double>::infinity())
                   : heap.front().time;
    }

    const CalendarEntry<Payload> &
    top() const
    {
        PIMBA_ASSERT(!heap.empty(), "top() on an empty calendar");
        return heap.front();
    }

    /** Remove and return the earliest event. */
    CalendarEntry<Payload>
    pop()
    {
        PIMBA_ASSERT(!heap.empty(), "pop() on an empty calendar");
        std::pop_heap(heap.begin(), heap.end(), Later{});
        CalendarEntry<Payload> e = std::move(heap.back());
        heap.pop_back();
        lastPopped = e.time;
        return e;
    }

  private:
    /** Reverse strict-weak order: a sorts after b. */
    struct Later
    {
        bool
        operator()(const CalendarEntry<Payload> &a,
                   const CalendarEntry<Payload> &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            if (a.klass != b.klass)
                return a.klass > b.klass;
            if (a.tie != b.tie)
                return a.tie > b.tie;
            return a.seq > b.seq;
        }
    };

    std::vector<CalendarEntry<Payload>> heap;
    uint64_t nextSeq = 0;
    Seconds lastPopped{-std::numeric_limits<double>::infinity()};
};

} // namespace pimba

#endif // PIMBA_CORE_EVENT_QUEUE_H
