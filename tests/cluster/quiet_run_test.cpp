/**
 * @file
 * The engine's quiet-run fast path (serving/engine.h) against its
 * per-iteration path. A timeline with interval 0 is due every
 * iteration, so it keeps every replica on the per-iteration path and
 * its run is the reference: over routers x arrival processes x seeds x
 * policies, with deadline cancels and tier evictions interleaving with
 * armed runs, the fleet metrics and every replica's report of an
 * untraced run and of a traced run (which fast-forwards too) must be
 * bit-equal to it. The fleet_replay preset pins that the fast path
 * really carries most of the iterations, observed or not, so a broken
 * arming condition cannot switch it off unnoticed. What observers see
 * of a fast-forwarded run is pinned against the reference too: the
 * timeline rows at any interval, and the counter tracks.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bit_equal.h"
#include "config/json.h"
#include "config/runner.h"
#include "presets.h"
#include "serving/trace.h"

namespace pimba {
namespace {

uint64_t
iterationsOf(const FleetReport &r)
{
    uint64_t n = 0;
    for (const ServingReport &s : r.replicas)
        n += s.iterations;
    return n;
}

uint64_t
fastForwardedOf(const FleetReport &r)
{
    uint64_t n = 0;
    for (const ServingReport &s : r.replicas)
        n += s.fastForwardedIterations;
    return n;
}

TraceConfig
traceFor(ArrivalProcess arrivals, uint32_t seed)
{
    TraceConfig tc;
    tc.arrivals = arrivals;
    tc.diurnal.period = Seconds(4.0);
    tc.diurnal.peakToTrough = 3.0;
    tc.mmpp.burstMultiplier = 4.0;
    tc.mmpp.burstMean = Seconds(0.5);
    tc.mmpp.idleMean = Seconds(2.0);
    tc.ratePerSec = 24.0 + 8.0 * static_cast<double>(seed);
    tc.numRequests = 120;
    TraceClass interactive;
    interactive.name = "interactive";
    interactive.weight = 2.0;
    interactive.lengths = LengthDistribution::Uniform;
    interactive.inputLen = 32;
    interactive.inputLenMax = 192;
    interactive.outputLen = 8;
    interactive.outputLenMax = 64;
    TraceClass batch = interactive;
    batch.name = "batch";
    batch.weight = 1.0;
    batch.inputLen = 128;
    batch.inputLenMax = 512;
    batch.outputLen = 32;
    batch.outputLenMax = 160;
    tc.classes = {interactive, batch};
    tc.seed = 0x51A7E5u + 7919u * seed +
              101u * static_cast<uint32_t>(arrivals);
    return tc;
}

/// How runFleet observes the fleet.
enum class Observed
{
    No,
    Traced,       ///< a tracer and a 50 ms timeline
    PerIteration, ///< the reference: a timeline due every iteration
};

FleetReport
runFleet(const ModelConfig &model, const FleetConfig &fc,
         const std::vector<Request> &trace, Observed how)
{
    Tracer tracer;
    TimelineSampler timeline(
        Seconds(how == Observed::PerIteration ? 0.0 : 0.05));
    Fleet fleet(model, fc);
    FleetObservers fo;
    if (how == Observed::Traced)
        fo.tracer = &tracer;
    if (how != Observed::No)
        fo.timeline = &timeline;
    fleet.attachObservers(fo);
    return fleet.run(trace);
}

/// A three-replica Pimba fleet serving Mamba-2, or with @p control
/// OPT-2.7B with priority tiers and deadlines: TTFT timeouts for
/// interactive requests, total-latency timeouts that cancel batch
/// requests mid-decode, and a budget of five 256-token footprints past
/// the weights, so KV growth evicts the lower tier.
std::pair<ModelConfig, FleetConfig>
fleetFor(RouterPolicy router, SchedulerPolicy policy, bool control)
{
    const ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    const ModelConfig model = control ? opt2p7b() : mamba2_2p7b();
    EngineConfig ec;
    ec.policy = policy;
    if (control)
        ec.memoryBudget = sim.weightFootprint(model) +
                          5.0 * sim.requestFootprint(model, 256);
    FleetConfig fc = homogeneousFleet(SystemKind::PIMBA, 3, ec);
    fc.router = router;
    if (control) {
        fc.controlPlane.tierByClass = {1, 0};
        fc.controlPlane.deadlines.resize(2);
        fc.controlPlane.deadlines[0].ttft = Seconds(0.05);
        fc.controlPlane.deadlines[1].total = Seconds(0.6);
    }
    return {model, fc};
}

TEST(QuietRun, TracedFleetsMatchUntracedBitForBit)
{
    constexpr ArrivalProcess kArrivals[] = {ArrivalProcess::Poisson,
                                            ArrivalProcess::Diurnal,
                                            ArrivalProcess::Mmpp};
    uint64_t fastForwarded = 0, tracedFastForwarded = 0, cancelled = 0,
             preempted = 0;
    for (RouterPolicy router : allRouterPolicies()) {
        for (ArrivalProcess arrivals : kArrivals) {
            for (uint32_t seed = 0; seed < 3; ++seed) {
                for (bool control : {false, true}) {
                    const std::string tag =
                        routerName(router) + " arrivals " +
                        std::to_string(static_cast<int>(arrivals)) +
                        " seed " + std::to_string(seed) +
                        (control ? " tiers+deadlines" : "");
                    SCOPED_TRACE(tag);
                    const auto [model, fc] = fleetFor(
                        router,
                        allPolicies()[seed % allPolicies().size()],
                        control);
                    const auto trace =
                        generateTrace(traceFor(arrivals, seed));
                    const FleetReport reference =
                        runFleet(model, fc, trace, Observed::PerIteration);
                    const FleetReport plain =
                        runFleet(model, fc, trace, Observed::No);
                    const FleetReport traced =
                        runFleet(model, fc, trace, Observed::Traced);
                    EXPECT_EQ(fastForwardedOf(reference), 0u);
                    expectBitEqual(reference, plain);
                    expectBitEqual(reference, traced);
                    fastForwarded += fastForwardedOf(plain);
                    tracedFastForwarded += fastForwardedOf(traced);
                    cancelled += plain.controlPlane.cancelledRequests;
                    for (const ServingReport &r : plain.replicas)
                        preempted += r.preemptions;
                }
            }
        }
    }
    // The suite only proves something if the fast path ran, observed
    // or not, and the control plane really cancelled and evicted.
    EXPECT_GT(fastForwarded, 0u);
    EXPECT_GT(tracedFastForwarded, 0u);
    EXPECT_GT(cancelled, 0u);
    EXPECT_GT(preempted, 0u);
}

TEST(QuietRun, FleetReplayFastForwardsMostIterations)
{
    const auto sc = preset<FleetScenario>("fleet_replay.json",
                                          /*smoke=*/true);
    const FleetCase &c = sc.cases.at(0);
    auto run = [&](const FleetObservers &fo) {
        StepCostStores stores(sc.model);
        StreamingMetrics stream(c.fleet.slo);
        return runFleetCase(stores, sc, c, {}, fo, &stream);
    };
    const FleetReport plain = run({});
    const uint64_t iterations = iterationsOf(plain);
    EXPECT_GT(static_cast<double>(fastForwardedOf(plain)),
              0.7 * static_cast<double>(iterations));

    Tracer tracer;
    FleetObservers withTracer;
    withTracer.tracer = &tracer;
    TimelineSampler timeline(Seconds(0.05));
    FleetObservers withTimeline;
    withTimeline.timeline = &timeline;
    for (const FleetObservers &fo : {withTracer, withTimeline}) {
        const FleetReport observed = run(fo);
        EXPECT_GT(static_cast<double>(fastForwardedOf(observed)),
                  0.7 * static_cast<double>(iterations));
        EXPECT_EQ(iterationsOf(observed), iterations);
        expectBitEqual(plain, observed);
    }

    TimelineSampler everyIteration(Seconds(0.0));
    FleetObservers perIteration;
    perIteration.timeline = &everyIteration;
    const FleetReport reference = run(perIteration);
    EXPECT_EQ(fastForwardedOf(reference), 0u);
    EXPECT_EQ(iterationsOf(reference), iterations);
    expectBitEqual(plain, reference);
}

/// @p a and @p b hold the same rows, bit for bit.
void
expectSameRows(const std::vector<TimelineRow> &a,
               const std::vector<TimelineRow> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        EXPECT_EQ(a[i].track, b[i].track);
        EXPECT_EQ(std::bit_cast<uint64_t>(a[i].time.value()),
                  std::bit_cast<uint64_t>(b[i].time.value()));
        EXPECT_EQ(a[i].queueDepth, b[i].queueDepth);
        EXPECT_EQ(a[i].outstandingTokens, b[i].outstandingTokens);
        EXPECT_EQ(a[i].running, b[i].running);
        EXPECT_EQ(std::bit_cast<uint64_t>(a[i].blockUtil),
                  std::bit_cast<uint64_t>(b[i].blockUtil));
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(QuietRun, TimelineCadenceFiltersThePerIterationSeries)
{
    // An interval-0 timeline samples after every iteration. A timeline
    // at interval d > 0 must record exactly the rows the cadence rule
    // keeps from that series: per track, the first row at or after the
    // next due instant, which then moves to that row's time + d. Its
    // engines fast-forward, stopping at each due instant.
    const auto sc = preset<FleetScenario>("fleet_replay.json",
                                          /*smoke=*/true);
    const FleetCase &c = sc.cases.at(0);
    auto rowsAt = [&](Seconds interval, uint64_t *fastForwarded) {
        TimelineSampler timeline(interval);
        FleetObservers fo;
        fo.timeline = &timeline;
        StepCostStores stores(sc.model);
        StreamingMetrics stream(c.fleet.slo);
        *fastForwarded =
            fastForwardedOf(runFleetCase(stores, sc, c, {}, fo, &stream));
        return timeline.rows();
    };
    uint64_t fastForwarded = 0;
    const std::vector<TimelineRow> every = rowsAt(Seconds(0.0),
                                                  &fastForwarded);
    EXPECT_EQ(fastForwarded, 0u);
    for (double interval : {0.01, 0.05, 1.0}) {
        SCOPED_TRACE("interval " + std::to_string(interval));
        std::map<int, Seconds> due;
        std::vector<TimelineRow> kept;
        for (const TimelineRow &r : every) {
            auto [at, fresh] = due.try_emplace(r.track, Seconds(0.0));
            if (r.time < at->second)
                continue;
            kept.push_back(r);
            at->second = r.time + Seconds(interval);
        }
        const std::vector<TimelineRow> sampled =
            rowsAt(Seconds(interval), &fastForwarded);
        EXPECT_GT(fastForwarded, 0u);
        EXPECT_GT(sampled.size(), 1u);
        expectSameRows(kept, sampled);
    }
}

/// Counter samples of a rendered trace per (pid, track name), in file
/// order, as (ts, value).
using CounterTracks =
    std::map<std::pair<int, std::string>,
             std::vector<std::pair<double, double>>>;

CounterTracks
counterTracks(const Tracer &tracer)
{
    CounterTracks tracks;
    const JsonValue doc = parseJson(tracer.renderJson());
    for (const JsonValue &e : doc.find("traceEvents")->items()) {
        if (e.find("ph")->asString() != "C")
            continue;
        tracks[{static_cast<int>(e.find("pid")->asNumber()),
                e.find("name")->asString()}]
            .emplace_back(e.find("ts")->asNumber(),
                          e.find("args")->find("value")->asNumber());
    }
    return tracks;
}

/// Neither run's counter tracks repeat a value, and @p fast draws the
/// steps of @p reference: every track but outstanding tokens sample
/// for sample, outstanding tokens a subset (it changes every iteration
/// and a quiet pass writes it once, at its end).
void
expectSameSteps(const CounterTracks &fast, const CounterTracks &reference)
{
    ASSERT_EQ(fast.size(), reference.size());
    for (const auto &[track, samples] : reference) {
        SCOPED_TRACE("pid " + std::to_string(track.first) + " " +
                     track.second);
        const auto &got = fast.at(track);
        for (const auto *series : {&samples, &got})
            for (size_t i = 1; i < series->size(); ++i)
                EXPECT_NE((*series)[i].second, (*series)[i - 1].second)
                    << "sample " << i << " at " << (*series)[i].first;
        if (track.second != "outstanding tokens") {
            EXPECT_TRUE(got == samples);
            continue;
        }
        EXPECT_LT(got.size(), samples.size());
        size_t at = 0;
        for (const auto &s : got) {
            while (at < samples.size() && samples[at] != s)
                ++at;
            EXPECT_LT(at, samples.size())
                << "sample at " << s.first << " is not the reference's";
        }
    }
}

TEST(QuietRun, CountersStepOnlyWhenTheyChange)
{
    // A traced run fast-forwards; adding a timeline due every iteration
    // keeps it on the per-iteration path. Both write each counter only
    // when it changes, so the two traces must draw the same steps.
    for (bool control : {false, true}) {
        SCOPED_TRACE(control ? "tiers+deadlines" : "mamba2");
        const auto [model, fc] = fleetFor(RouterPolicy::JoinShortestQueue,
                                          SchedulerPolicy::FCFS, control);
        const auto trace =
            generateTrace(traceFor(ArrivalProcess::Mmpp, 1));
        auto tracksOf = [&, &model = model, &fc = fc](bool perIteration) {
            Tracer tracer;
            TimelineSampler timeline(Seconds(0.0));
            FleetObservers fo;
            fo.tracer = &tracer;
            if (perIteration)
                fo.timeline = &timeline;
            Fleet fleet(model, fc);
            fleet.attachObservers(fo);
            const FleetReport r = fleet.run(trace);
            EXPECT_EQ(fastForwardedOf(r) == 0, perIteration);
            return counterTracks(tracer);
        };
        expectSameSteps(tracksOf(false), tracksOf(true));
    }

    // The fleet submits an arrival only once the replica has run up to
    // it, so its counters change only where a quiet run ends. A driver
    // of the session API may submit ahead of the clock instead: queue
    // depth and outstanding tokens then change between two passes of
    // one quiet run, and the next pass must still draw the step at its
    // first iteration, where the per-iteration path draws it.
    const auto trace = generateTrace(traceFor(ArrivalProcess::Poisson, 0));
    auto sessionTracks = [&](bool perIteration, uint64_t *fastForwarded) {
        const ServingSimulator sim(makeSystem(SystemKind::PIMBA));
        ServingEngine engine(sim, mamba2_2p7b());
        Tracer tracer;
        TimelineSampler timeline(Seconds(0.0));
        EngineObservers eo;
        eo.tracer = &tracer;
        if (perIteration) {
            eo.timeline = &timeline;
            eo.timelineTrack = timeline.registerTrack("engine");
        }
        engine.attachObservers(eo);
        engine.begin();
        Seconds target(0.0);
        for (const Request &r : trace) {
            target = std::max(target, r.arrival - Seconds(0.05));
            engine.advanceTo(target);
            engine.submit(r);
        }
        engine.drain();
        *fastForwarded = engine.finish().fastForwardedIterations;
        return counterTracks(tracer);
    };
    uint64_t fastForwarded = 0, reference = 0;
    const CounterTracks fast = sessionTracks(false, &fastForwarded);
    expectSameSteps(fast, sessionTracks(true, &reference));
    EXPECT_GT(fastForwarded, 0u);
    EXPECT_EQ(reference, 0u);
}

} // namespace
} // namespace pimba
