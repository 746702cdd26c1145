/**
 * @file
 * Event-tracer tests: trace-event structure (metadata first, globally
 * monotonic timestamps, nested B/E lanes), and the engine integration
 * — a traced run must emit the full request lifecycle and phase lanes
 * while leaving the simulated report bit-identical to an untraced run
 * (the zero-perturbation contract CI's trace-smoke job re-checks on
 * whole presets).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/tracer.h"
#include "serving/engine.h"
#include "serving/trace.h"

namespace pimba {
namespace {

/// Occurrences of @p needle in @p hay.
size_t
countOf(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(Tracer, RenderEmitsMetadataFirstAndSortsEventsByTimestamp)
{
    Tracer t;
    // Record deliberately out of timestamp order.
    t.complete(1, kTraceIterTid, Seconds(0.002), Seconds(0.001), "late",
               "iteration");
    t.processName(1, "engine under test");
    t.threadName(1, kTraceIterTid, "iterations");
    t.complete(1, kTraceIterTid, Seconds(0.001), Seconds(0.001),
               "early", "iteration");
    EXPECT_EQ(t.eventCount(), 2u); // metadata not counted

    std::string json = t.renderJson();
    EXPECT_LT(json.find("process_name"), json.find("\"late\""));
    EXPECT_LT(json.find("thread_name"), json.find("\"late\""));
    // Sorted: the 1000 us event precedes the 2000 us one.
    EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
}

TEST(Tracer, BeginEndInstantCounterRenderTheirPhases)
{
    Tracer t;
    t.begin(3, requestLane(7), Seconds(0.5), "req 7", "request",
            {{"input_len", 64.0}});
    t.instant(3, requestLane(7), Seconds(0.75), "admitted", "request");
    t.counter(3, Seconds(0.8), "queue depth", 5.0);
    t.end(3, requestLane(7), Seconds(1.0));

    std::string json = t.renderJson();
    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), 1u);
    EXPECT_EQ(countOf(json, "\"ph\":\"E\""), 1u);
    EXPECT_EQ(countOf(json, "\"ph\":\"i\""), 1u);
    EXPECT_EQ(countOf(json, "\"ph\":\"C\""), 1u);
    // Instants carry thread scope; counters carry their value arg.
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":5"), std::string::npos);
    EXPECT_NE(json.find("\"input_len\":64"), std::string::npos);
}

TEST(Tracer, RequestLanesStayExactPastThirtyTwoBits)
{
    // pimba-trace-v1 ids are 64-bit; a 32-bit lane would wrap them
    // negative (or onto another request's lane).
    const uint64_t big = (uint64_t{1} << 31) + 5;
    const uint64_t huge = uint64_t{1} << 40;
    EXPECT_EQ(requestLane(big), int64_t{2147483753});
    EXPECT_EQ(requestLane(huge), int64_t{1099511627876});

    Tracer t;
    t.begin(3, requestLane(big), Seconds(0.5), "req big", "request");
    t.end(3, requestLane(big), Seconds(1.0));
    t.instant(3, requestLane(huge), Seconds(0.75), "admitted",
              "request");
    std::string json = t.renderJson();
    EXPECT_EQ(countOf(json, "\"tid\":2147483753,"), 2u);
    EXPECT_EQ(countOf(json, "\"tid\":1099511627876,"), 1u);
    EXPECT_EQ(countOf(json, "\"tid\":-"), 0u);
}

TraceConfig
tracedTrace()
{
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 16.0;
    tc.numRequests = 24;
    tc.inputLen = 128;
    tc.outputLen = 16;
    tc.seed = 99;
    return tc;
}

TEST(TracerEngine, TracedRunEmitsLifecycleAndPhaseLanes)
{
    auto trace = generateTrace(tracedTrace());
    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    ServingEngine engine(sim, mamba2_2p7b(), {});

    Tracer tracer;
    EngineObservers eo;
    eo.tracer = &tracer;
    eo.pid = 1;
    engine.attachObservers(eo);
    ServingReport rep = engine.run(trace);
    ASSERT_EQ(rep.completed.size(), trace.size());

    std::string json = tracer.renderJson();
    // One lifecycle lane per request, opened and closed.
    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), trace.size());
    EXPECT_EQ(countOf(json, "\"ph\":\"E\""), trace.size());
    // Every request is admitted and produces a first token.
    EXPECT_EQ(countOf(json, "\"admitted\""), trace.size());
    EXPECT_EQ(countOf(json, "\"first token\""), trace.size());
    // Iteration slices cover the run (cat "iteration", one per engine
    // iteration); phase lanes are populated (the Pimba system does SSM
    // state update on PIM, so both gpu and pim lanes carry slices).
    EXPECT_EQ(countOf(json, "\"iteration\""),
              static_cast<size_t>(rep.iterations));
    EXPECT_NE(json.find("\"name\":\"gpu\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"pim\""), std::string::npos);
    EXPECT_GE(countOf(json, "\"cat\":\"gpu\""), 1u);
    EXPECT_GE(countOf(json, "\"cat\":\"pim\""), 1u);
}

TEST(TracerEngine, TracingDoesNotPerturbTheReport)
{
    auto trace = generateTrace(tracedTrace());

    ServingSimulator plainSim(makeSystem(SystemKind::PIMBA));
    ServingEngine plain(plainSim, mamba2_2p7b(), {});
    ServingReport a = plain.run(trace);

    ServingSimulator tracedSim(makeSystem(SystemKind::PIMBA));
    ServingEngine traced(tracedSim, mamba2_2p7b(), {});
    Tracer tracer;
    EngineObservers eo;
    eo.tracer = &tracer;
    traced.attachObservers(eo);
    ServingReport b = traced.run(trace);

    EXPECT_GT(tracer.eventCount(), 0u);
    EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value());
    EXPECT_EQ(a.iterations, b.iterations);
    ASSERT_EQ(a.completed.size(), b.completed.size());
    for (size_t i = 0; i < a.completed.size(); ++i) {
        EXPECT_EQ(a.completed[i].req.id, b.completed[i].req.id);
        EXPECT_DOUBLE_EQ(a.completed[i].ttft.value(),
                         b.completed[i].ttft.value());
        EXPECT_DOUBLE_EQ(a.completed[i].tpot.value(),
                         b.completed[i].tpot.value());
        EXPECT_DOUBLE_EQ(a.completed[i].latency.value(),
                         b.completed[i].latency.value());
    }
}

} // namespace
} // namespace pimba
