/**
 * @file
 * Engine cancellation tests: the session-API cancel() the control
 * plane's deadline timers drive (docs/control-plane.md). Pins the
 * queued-drop and running-eviction paths, the TTFT-met guard, stale
 * timers as no-ops, freed capacity being reusable, and the
 * unsigned-wrap clamps in the cancellation/eviction token accounting —
 * the delivered-token counter must never underflow when a request is
 * cancelled before producing anything. Also pins the running load
 * signals a cancel must unwind, and that a submit may not arrive in
 * the engine's past.
 */

#include <gtest/gtest.h>

#include <limits>

#include "serving/engine.h"
#include "serving/trace.h"

namespace pimba {
namespace {

ServingEngine
makeEngine(EngineConfig cfg = {})
{
    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    return ServingEngine(sim, mamba2_2p7b(), cfg);
}

Request
makeRequest(uint64_t id, double arrival, uint64_t in, uint64_t out,
            uint32_t classId = 0)
{
    Request r;
    r.id = id;
    r.classId = classId;
    r.arrival = Seconds(arrival);
    r.inputLen = in;
    r.outputLen = out;
    return r;
}

TEST(EngineCancel, QueuedRequestDropsWithoutWaste)
{
    // maxBatch 1 parks the second request in the waiting queue; a
    // queued cancel is pure bookkeeping — nothing was computed, so
    // nothing is wasted.
    EngineConfig cfg;
    cfg.maxBatch = 1;
    auto engine = makeEngine(cfg);
    engine.begin();
    engine.submit(makeRequest(1, 0.0, 64, 256));
    engine.submit(makeRequest(2, 0.0, 64, 16));
    engine.advanceTo(Seconds(0.05)); // request 1 admitted, 2 queued
    ASSERT_EQ(engine.queueDepth(), 2u); // 1 running + 1 waiting

    EXPECT_TRUE(engine.cancel(2, engine.now(), false));
    EXPECT_EQ(engine.queueDepth(), 1u); // only 1, still running
    engine.drain();
    ServingReport rep = engine.finish();
    EXPECT_EQ(rep.completedRequests, 1u);
    EXPECT_EQ(rep.cancelledRequests, 1u);
    EXPECT_EQ(rep.wastedTokens, 0u);
    EXPECT_EQ(rep.generatedTokens, 256u);
    ASSERT_EQ(rep.completed.size(), 1u);
    EXPECT_EQ(rep.completed[0].req.id, 1u);
}

TEST(EngineCancel, RunningRequestWastesComputeAndUnwindsDelivered)
{
    // Cancel mid-decode: the prompt prefill plus every locally decoded
    // token becomes waste, and the delivered counter unwinds to
    // exactly zero — the clamp regression this file exists for. Before
    // the clamps, an eviction/cancel race on a request with zero
    // generated tokens wrapped the unsigned counter.
    auto engine = makeEngine();
    engine.begin();
    engine.submit(makeRequest(1, 0.0, 128, 512));
    engine.advanceTo(Seconds(0.1)); // prefill done, some tokens out
    ASSERT_EQ(engine.queueDepth(), 1u); // still in flight

    EXPECT_TRUE(engine.cancel(1, engine.now(), false));
    engine.drain();
    ServingReport rep = engine.finish();
    EXPECT_EQ(rep.completedRequests, 0u);
    EXPECT_EQ(rep.cancelledRequests, 1u);
    EXPECT_EQ(rep.generatedTokens, 0u); // no underflow wrap
    // Waste covers at least the prefilled prompt.
    EXPECT_GE(rep.wastedTokens, 128u);
    EXPECT_EQ(rep.metrics.cancelledRequests, 1u);
    EXPECT_EQ(rep.metrics.wastedTokens, rep.wastedTokens);
}

TEST(EngineCancel, CancelBeforeAnyComputeLeavesCountersAtZero)
{
    // Cancel at the arrival instant, before a single iteration ran:
    // the running-path clamp must cope with prefilled == generated ==
    // 0 (wasted 0, delivered 0) instead of wrapping.
    auto engine = makeEngine();
    engine.begin();
    engine.submit(makeRequest(1, 0.0, 64, 32));
    EXPECT_TRUE(engine.cancel(1, Seconds(0.0), false));
    engine.drain();
    ServingReport rep = engine.finish();
    EXPECT_EQ(rep.cancelledRequests, 1u);
    EXPECT_EQ(rep.completedRequests, 0u);
    EXPECT_EQ(rep.wastedTokens, 0u);
    EXPECT_EQ(rep.generatedTokens, 0u);
}

TEST(EngineCancel, TtftGuardSparesDeliveredRequests)
{
    // onlyIfNoFirstToken is the TTFT-deadline mode: once the first
    // token is out, the timer must be a no-op and the request runs to
    // completion untouched.
    auto engine = makeEngine();
    engine.begin();
    engine.submit(makeRequest(1, 0.0, 64, 32));
    engine.advanceTo(Seconds(0.5)); // far past the first token
    EXPECT_FALSE(engine.cancel(1, engine.now(), true));
    engine.drain();
    ServingReport rep = engine.finish();
    EXPECT_EQ(rep.completedRequests, 1u);
    EXPECT_EQ(rep.cancelledRequests, 0u);
    EXPECT_EQ(rep.wastedTokens, 0u);
    EXPECT_EQ(rep.generatedTokens, 32u);
}

TEST(EngineCancel, StaleTimersAreNoOps)
{
    auto engine = makeEngine();
    engine.begin();
    engine.submit(makeRequest(1, 0.0, 64, 8));
    engine.drain(); // request 1 completed
    EXPECT_FALSE(engine.cancel(1, engine.now(), false)); // completed
    EXPECT_FALSE(engine.cancel(99, engine.now(), false)); // unknown
    ServingReport rep = engine.finish();
    EXPECT_EQ(rep.completedRequests, 1u);
    EXPECT_EQ(rep.cancelledRequests, 0u);
    EXPECT_EQ(rep.generatedTokens, 8u);
}

TEST(EngineCancel, CancelledSlotIsReusable)
{
    // The capacity a cancelled request held — its batch slot and its
    // blocks — must be free for the next arrival, and the books still
    // balance: completed + cancelled == submitted.
    EngineConfig cfg;
    cfg.maxBatch = 1;
    auto engine = makeEngine(cfg);
    engine.begin();
    engine.submit(makeRequest(1, 0.0, 128, 4096));
    engine.submit(makeRequest(2, 0.0, 64, 16));
    engine.advanceTo(Seconds(0.05));
    ASSERT_EQ(engine.queueDepth(), 2u); // 1 running, 2 stuck behind it

    EXPECT_TRUE(engine.cancel(1, engine.now(), false));
    engine.drain();
    ServingReport rep = engine.finish();
    ASSERT_EQ(rep.completed.size(), 1u);
    EXPECT_EQ(rep.completed[0].req.id, 2u);
    EXPECT_EQ(rep.completedRequests + rep.cancelledRequests, 2u);
    EXPECT_EQ(rep.generatedTokens, 16u);
    EXPECT_GE(rep.wastedTokens, 128u); // request 1's dead prefill
}

TEST(EngineCancel, PreloadedCancelClampsAtImportedFirstToken)
{
    // A preloaded (disaggregation-import) request carries generated ==
    // 1 from its prefill replica. Cancelling it before any *local*
    // decode step must treat local work as zero — the `generated - 1`
    // clamp — rather than unwinding tokens this replica never made.
    auto engine = makeEngine();
    engine.begin();
    engine.submitPrefilled(makeRequest(1, 0.0, 64, 32));
    EXPECT_TRUE(engine.cancel(1, Seconds(0.0), false));
    engine.drain();
    ServingReport rep = engine.finish();
    EXPECT_EQ(rep.cancelledRequests, 1u);
    EXPECT_EQ(rep.completedRequests, 0u);
    EXPECT_EQ(rep.wastedTokens, 0u);
    EXPECT_EQ(rep.generatedTokens, 0u);
}

TEST(EngineCancel, LoadSignalsCountEachRequestsShare)
{
    // Class 0 sits at tier 1 (weight 2), class 1 at tier 0 (weight 1).
    // Before any advance every request is queued and owes its whole
    // prompt and output; a prefilled import owes its output but the
    // first token.
    EngineConfig cfg;
    cfg.maxBatch = 1;
    cfg.tierByClass = {1, 0};
    auto engine = makeEngine(cfg);
    engine.begin();
    engine.submit(makeRequest(1, 0.0, 64, 256, 0));
    engine.submit(makeRequest(2, 0.0, 100, 20, 1));
    engine.submit(makeRequest(3, 0.01, 50, 10, 0));
    engine.submitPrefilled(makeRequest(4, 0.02, 80, 30, 1));
    EXPECT_EQ(engine.queueDepth(), 4u);
    EXPECT_EQ(engine.outstandingTokens(),
              (64u + 256u) + (100u + 20u) + (50u + 10u) + (30u - 1u));
    EXPECT_EQ(engine.tierPressure(), 2u + 1u + 2u + 1u);
    EXPECT_EQ(engine.nextEventTime(), Seconds(0.0));

    // Request 1 is resident and the other three queued behind it.
    engine.advanceTo(Seconds(0.05));
    ASSERT_EQ(engine.queueDepth(), 4u);
    ASSERT_EQ(engine.waitingCount(), 3u);
    const uint64_t before = engine.outstandingTokens();

    // A queued cancel removes exactly its whole share.
    EXPECT_TRUE(engine.cancel(2, engine.now(), false));
    EXPECT_EQ(engine.outstandingTokens(), before - (100u + 20u));
    EXPECT_EQ(engine.tierPressure(), 2u + 2u + 1u);
    EXPECT_EQ(engine.queueDepth(), 3u);

    // A resident cancel removes exactly its remaining share: what is
    // left is the two queued requests' shares.
    EXPECT_TRUE(engine.cancel(1, engine.now(), false));
    EXPECT_EQ(engine.outstandingTokens(), (50u + 10u) + (30u - 1u));
    EXPECT_EQ(engine.tierPressure(), 2u + 1u);
    EXPECT_EQ(engine.queueDepth(), 2u);

    engine.drain();
    EXPECT_EQ(engine.queueDepth(), 0u);
    EXPECT_EQ(engine.outstandingTokens(), 0u);
    EXPECT_EQ(engine.tierPressure(), 0u);
    EXPECT_EQ(engine.nextEventTime(),
              Seconds(std::numeric_limits<double>::infinity()));
    ServingReport rep = engine.finish();
    EXPECT_EQ(rep.completedRequests, 2u);
    EXPECT_EQ(rep.cancelledRequests, 2u);

    // Untiered, tier pressure is zero whatever is queued.
    auto untiered = makeEngine();
    untiered.begin();
    untiered.submit(makeRequest(1, 0.0, 64, 32));
    EXPECT_EQ(untiered.tierPressure(), 0u);
    EXPECT_EQ(untiered.outstandingTokens(), 64u + 32u);
}

TEST(EngineCancelDeathTest, SubmitBeforeTheAdvanceTargetPanics)
{
    // advanceTo(1.0) may run the clock past 1.0; an arrival at 0.5
    // would then count its latencies from an instant the engine has
    // already served past.
    auto engine = makeEngine();
    engine.begin();
    engine.advanceTo(Seconds(1.0));
    EXPECT_DEATH(engine.submit(makeRequest(1, 0.5, 64, 8)),
                 "before the engine was advanced to");
}

} // namespace
} // namespace pimba
