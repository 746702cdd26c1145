/**
 * @file
 * Event-calendar tests: min-first dispatch over (time, class, tiebreak,
 * sequence), FIFO among fully-equal keys, interleaved push/pop, the
 * empty-calendar sentinel, and the never-runs-backward guard. The
 * fleet's same-instant rules rest on the ordering pinned here: an
 * arrival routes before a hand-off lands, and simultaneous hand-offs
 * land by request id.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/event_queue.h"
#include "core/lfsr.h"

namespace pimba {
namespace {

TEST(EventQueueTest, PopsInTimeOrder)
{
    EventQueue<int> q;
    q.push(Seconds(3.0), 0, 0, 30);
    q.push(Seconds(1.0), 0, 0, 10);
    q.push(Seconds(2.0), 0, 0, 20);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_DOUBLE_EQ(q.nextTime().value(), 1.0);
    EXPECT_EQ(q.pop().payload, 10);
    EXPECT_EQ(q.pop().payload, 20);
    EXPECT_EQ(q.pop().payload, 30);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EmptyCalendarHasInfiniteNextTime)
{
    EventQueue<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(std::isinf(q.nextTime().value()));
    EXPECT_GT(q.nextTime(), Seconds(1e300));
}

TEST(EventQueueTest, ClassBreaksTimeTies)
{
    // At the same instant the lower class dispatches first: the fleet's
    // arrival-beats-handoff rule.
    EventQueue<int> q;
    q.push(Seconds(5.0), 1, 7, 100); // "handoff"
    q.push(Seconds(5.0), 0, 0, 200); // "arrival", pushed later
    EXPECT_EQ(q.pop().payload, 200);
    EXPECT_EQ(q.pop().payload, 100);
}

TEST(EventQueueTest, TiebreakOrdersWithinClass)
{
    EventQueue<int> q;
    q.push(Seconds(2.0), 1, 9, 9);
    q.push(Seconds(2.0), 1, 4, 4);
    q.push(Seconds(2.0), 1, 6, 6);
    EXPECT_EQ(q.pop().payload, 4);
    EXPECT_EQ(q.pop().payload, 6);
    EXPECT_EQ(q.pop().payload, 9);
}

TEST(EventQueueTest, FullyEqualKeysAreFifo)
{
    EventQueue<int> q;
    for (int i = 0; i < 16; ++i)
        q.push(Seconds(1.0), 0, 0, i);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(q.pop().payload, i) << "insertion " << i;
}

TEST(EventQueueTest, InterleavedPushPopStaysSorted)
{
    // Randomized interleaving: at any pop, the returned key must be
    // <= every key popped after it (global sortedness), even when
    // pushes land between pops. Seeded, so the sequence is pinned.
    Lfsr32 rng(0xE7E27u);
    EventQueue<uint64_t> q;
    std::vector<double> popped;
    uint64_t id = 0;
    double horizon = 0.0; // pushes must not precede the last pop
    for (int step = 0; step < 2000; ++step) {
        bool doPush = q.empty() || rng.nextUnit() < 0.55;
        if (doPush) {
            double t = horizon + 10.0 * rng.nextUnit();
            q.push(Seconds(t), 0, 0, id++);
        } else {
            auto e = q.pop();
            popped.push_back(e.time.value());
            horizon = e.time.value();
        }
    }
    while (!q.empty())
        popped.push_back(q.pop().time.value());
    for (size_t i = 1; i < popped.size(); ++i)
        EXPECT_LE(popped[i - 1], popped[i]) << "pop " << i;
    EXPECT_EQ(popped.size(), static_cast<size_t>(id));
}

TEST(EventQueueTest, TopMatchesNextPop)
{
    EventQueue<int> q;
    q.push(Seconds(2.0), 0, 0, 2);
    q.push(Seconds(1.0), 0, 0, 1);
    EXPECT_EQ(q.top().payload, 1);
    EXPECT_DOUBLE_EQ(q.top().time.value(), q.nextTime().value());
    EXPECT_EQ(q.pop().payload, 1);
    EXPECT_EQ(q.top().payload, 2);
}

TEST(EventQueueDeathTest, SchedulingBeforeLastPopIsFatal)
{
    EventQueue<int> q;
    q.push(Seconds(5.0), 0, 0, 1);
    (void)q.pop();
    EXPECT_DEATH(q.push(Seconds(4.0), 0, 0, 2), "before");
}

TEST(EventQueueDeathTest, PopOnEmptyIsFatal)
{
    EventQueue<int> q;
    EXPECT_DEATH((void)q.pop(), "empty");
}

} // namespace
} // namespace pimba
