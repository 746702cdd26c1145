/**
 * @file
 * The engine's quiet-run fast path (serving/engine.h) against its
 * per-iteration path. An attached tracer or timeline keeps every
 * replica on the per-iteration path, so a traced fleet run is the
 * reference: over routers x arrival processes x seeds x policies, with
 * deadline cancels and tier evictions interleaving with armed runs, the
 * fleet metrics and every replica's report must be bit-equal to the
 * untraced run's. The fleet_replay preset pins that the fast path
 * really carries most of the iterations, so a broken arming condition
 * cannot switch it off unnoticed.
 */

#include <gtest/gtest.h>

#include "bit_equal.h"
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

FleetReport
runFleet(const ModelConfig &model, const FleetConfig &fc,
         const std::vector<Request> &trace, bool traced)
{
    Tracer tracer;
    TimelineSampler timeline(Seconds(0.05));
    Fleet fleet(model, fc);
    if (traced) {
        FleetObservers fo;
        fo.tracer = &tracer;
        fo.timeline = &timeline;
        fleet.attachObservers(fo);
    }
    return fleet.run(trace);
}

TEST(QuietRun, TracedFleetsMatchUntracedBitForBit)
{
    constexpr ArrivalProcess kArrivals[] = {ArrivalProcess::Poisson,
                                            ArrivalProcess::Diurnal,
                                            ArrivalProcess::Mmpp};
    const ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    uint64_t fastForwarded = 0, cancelled = 0, preempted = 0;
    for (RouterPolicy router : allRouterPolicies()) {
        for (ArrivalProcess arrivals : kArrivals) {
            for (uint32_t seed = 0; seed < 3; ++seed) {
                // A Mamba-2 fleet, then an OPT-2.7B one with priority
                // tiers and deadlines: TTFT timeouts for interactive
                // requests, total-latency timeouts that cancel batch
                // requests mid-decode, and a budget of five 256-token
                // footprints past the weights, so KV growth evicts the
                // lower tier.
                for (bool control : {false, true}) {
                    const std::string tag =
                        routerName(router) + " arrivals " +
                        std::to_string(static_cast<int>(arrivals)) +
                        " seed " + std::to_string(seed) +
                        (control ? " tiers+deadlines" : "");
                    SCOPED_TRACE(tag);
                    const ModelConfig model =
                        control ? opt2p7b() : mamba2_2p7b();
                    EngineConfig ec;
                    ec.policy = allPolicies()[seed % allPolicies().size()];
                    if (control)
                        ec.memoryBudget =
                            sim.weightFootprint(model) +
                            5.0 * sim.requestFootprint(model, 256);
                    FleetConfig fc =
                        homogeneousFleet(SystemKind::PIMBA, 3, ec);
                    fc.router = router;
                    if (control) {
                        fc.controlPlane.tierByClass = {1, 0};
                        fc.controlPlane.deadlines.resize(2);
                        fc.controlPlane.deadlines[0].ttft = Seconds(0.05);
                        fc.controlPlane.deadlines[1].total = Seconds(0.6);
                    }
                    const auto trace =
                        generateTrace(traceFor(arrivals, seed));
                    const FleetReport plain =
                        runFleet(model, fc, trace, false);
                    const FleetReport traced =
                        runFleet(model, fc, trace, true);
                    EXPECT_EQ(fastForwardedOf(traced), 0u);
                    expectBitEqual(plain, traced);
                    fastForwarded += fastForwardedOf(plain);
                    cancelled += plain.controlPlane.cancelledRequests;
                    for (const ServingReport &r : plain.replicas)
                        preempted += r.preemptions;
                }
            }
        }
    }
    // The suite only proves something if the fast path ran and the
    // control plane really cancelled and evicted.
    EXPECT_GT(fastForwarded, 0u);
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
    TimelineSampler timeline(Seconds(1.0));
    FleetObservers withTimeline;
    withTimeline.timeline = &timeline;
    for (const FleetObservers &fo : {withTracer, withTimeline}) {
        const FleetReport observed = run(fo);
        EXPECT_EQ(fastForwardedOf(observed), 0u);
        EXPECT_EQ(iterationsOf(observed), iterations);
        expectBitEqual(plain, observed);
    }
}

} // namespace
} // namespace pimba
