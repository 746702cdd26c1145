/**
 * @file
 * Control-plane property suite (docs/control-plane.md): seeded random
 * fleets x arrival processes x control-plane policies, 100+ seeds per
 * policy, each run checked against the invariants that pin the
 * subsystem down — request/token conservation under cancellation,
 * no admission inside a warm-up span, provisioned-count bounds, the
 * monotone trajectory of scale-down-free configs, replica-second
 * billing bounds, and bit-exact determinism on a re-run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "presets.h"
#include "serving/trace.h"

namespace pimba {
namespace {

struct PolicyCase
{
    const char *name;
    bool autoscaler;
    bool scaleDown;
    bool tiersDeadlinesPrefix;
};

constexpr PolicyCase kPolicies[] = {
    {"autoscale-up-down", true, true, false},
    {"autoscale-monotone", true, false, false},
    {"tiers-deadlines-prefix", false, false, true},
    {"everything-on", true, true, true},
};
constexpr int kSeedsPerPolicy = 100;

TraceConfig
traceFor(uint32_t seed)
{
    TraceConfig tc;
    switch (seed % 3) {
    case 0:
        tc.arrivals = ArrivalProcess::Poisson;
        break;
    case 1:
        tc.arrivals = ArrivalProcess::Diurnal;
        tc.diurnal.period = Seconds(4.0);
        tc.diurnal.peakToTrough = 3.0;
        break;
    default:
        tc.arrivals = ArrivalProcess::Mmpp;
        tc.mmpp.burstMultiplier = 4.0;
        tc.mmpp.burstMean = Seconds(0.5);
        tc.mmpp.idleMean = Seconds(2.0);
        break;
    }
    tc.ratePerSec = 20.0 + 8.0 * static_cast<double>(seed % 5);
    tc.numRequests = 30 + static_cast<int>(seed % 11);
    TraceClass interactive;
    interactive.name = "interactive";
    interactive.weight = 1.0;
    interactive.lengths = LengthDistribution::Uniform;
    interactive.inputLen = 16;
    interactive.inputLenMax = 64;
    interactive.outputLen = 4;
    interactive.outputLenMax = 16;
    TraceClass batch = interactive;
    batch.name = "batch";
    batch.weight = 2.0;
    batch.inputLen = 32;
    batch.inputLenMax = 128;
    batch.outputLen = 8;
    batch.outputLenMax = 24;
    tc.classes = {interactive, batch};
    tc.seed = 0x9E3779B9u ^ (seed * 0x85EBCA6Bu + 1u);
    return tc;
}

FleetConfig
fleetFor(const PolicyCase &pc, uint32_t seed)
{
    const size_t n = 2 + seed % 2;
    FleetConfig fc = pimbaJsqFleet(n);
    constexpr RouterPolicy kRouters[] = {
        RouterPolicy::JoinShortestQueue, RouterPolicy::RoundRobin,
        RouterPolicy::CacheAffinity};
    fc.router = kRouters[(seed / 3) % 3];
    if (pc.autoscaler) {
        AutoscalerConfig &as = fc.controlPlane.autoscaler;
        as.enabled = true;
        as.minReplicas = 1;
        as.maxReplicas = 0; // resolves to the fleet size
        as.initialReplicas = 1;
        as.interval = Seconds(0.25 + 0.25 * static_cast<double>(seed % 3));
        as.scaleUpQueueDepth = 2.0 + static_cast<double>(seed % 4);
        as.scaleDownQueueDepth = pc.scaleDown ? 0.5 : 0.0;
        as.warmup = Seconds(0.2 * static_cast<double>(seed % 4));
        as.scaleUpWait = (seed % 2) ? Seconds(0.75) : Seconds(0.0);
    }
    if (pc.tiersDeadlinesPrefix) {
        fc.controlPlane.tierByClass = {1, 0};
        fc.controlPlane.deadlines.resize(2);
        fc.controlPlane.deadlines[0].ttft = Seconds(0.8);
        fc.controlPlane.deadlines[1].total = Seconds(2.5);
        fc.controlPlane.prefixTokensByClass = {12, 0};
    }
    return fc;
}

void
checkInvariants(const FleetReport &rep,
                const std::vector<Request> &trace,
                const FleetConfig &fc, bool monotone,
                const std::string &tag)
{
    SCOPED_TRACE(tag);
    const size_t fleetSize = fc.replicas.size();
    const ControlPlaneReport &cp = rep.controlPlane;
    ASSERT_TRUE(cp.enabled);

    // Conservation: every submitted request completes or cancels,
    // exactly once, fleet-wide and per replica.
    EXPECT_EQ(rep.completed.size() + cp.cancelledRequests, trace.size());
    EXPECT_EQ(rep.metrics.requests, rep.completed.size());
    EXPECT_EQ(rep.metrics.cancelledRequests, cp.cancelledRequests);
    EXPECT_EQ(rep.metrics.wastedTokens, cp.wastedTokens);
    uint64_t done = 0, cancelled = 0, wasted = 0, generated = 0;
    for (const ServingReport &r : rep.replicas) {
        done += r.completedRequests;
        cancelled += r.cancelledRequests;
        wasted += r.wastedTokens;
        generated += r.generatedTokens;
    }
    EXPECT_EQ(done + cancelled, trace.size());
    EXPECT_EQ(cancelled, cp.cancelledRequests);
    EXPECT_EQ(wasted, cp.wastedTokens);
    if (fc.controlPlane.deadlines.empty()) {
        // Only deadline timers cancel — scaling never drops requests.
        EXPECT_EQ(cp.cancelledRequests, 0u);
        EXPECT_EQ(cp.wastedTokens, 0u);
    }

    // Token accounting: delivered tokens are exactly the completed
    // requests' outputs — cancellation never leaks into the counter.
    uint64_t delivered = 0;
    for (const CompletedRequest &c : rep.completed)
        delivered += c.req.outputLen;
    EXPECT_EQ(generated, delivered);
    EXPECT_EQ(rep.metrics.generatedTokens, delivered);

    // Every request was routed exactly once, to a valid replica.
    EXPECT_EQ(rep.assignments.size(), trace.size());
    for (const Assignment &a : rep.assignments)
        EXPECT_LT(a.replica, fleetSize);

    // Warm-up exclusion: nothing routes to a replica inside one of its
    // warm-up spans [start, ready).
    std::map<uint64_t, Seconds> arrivalOf;
    for (const Request &r : trace)
        arrivalOf[r.id] = r.arrival;
    for (const WarmupSpan &w : cp.warmups) {
        EXPECT_LT(w.replica, fleetSize);
        EXPECT_LE(w.start.value(), w.ready.value());
        for (const Assignment &a : rep.assignments) {
            if (a.replica != w.replica)
                continue;
            Seconds at = arrivalOf.at(a.requestId);
            EXPECT_FALSE(at >= w.start && at < w.ready)
                << "request " << a.requestId << " routed to replica "
                << w.replica << " at t=" << at.value()
                << " inside warm-up [" << w.start.value() << ", "
                << w.ready.value() << ")";
        }
    }

    // Trajectory: starts at t=0, non-decreasing times, provisioned
    // count always within the resolved [min, max].
    const AutoscalerConfig &as = fc.controlPlane.autoscaler;
    const size_t minR = as.enabled ? as.minReplicas : fleetSize;
    const size_t maxR =
        as.enabled ? (as.maxReplicas != 0 ? as.maxReplicas : fleetSize)
                   : fleetSize;
    ASSERT_FALSE(cp.trajectory.empty());
    EXPECT_DOUBLE_EQ(cp.trajectory.front().time.value(), 0.0);
    for (size_t i = 0; i < cp.trajectory.size(); ++i) {
        const ScaleEvent &e = cp.trajectory[i];
        EXPECT_GE(e.provisioned, std::min(minR, maxR));
        EXPECT_LE(e.provisioned, maxR);
        if (i > 0) {
            EXPECT_GE(e.time.value(),
                      cp.trajectory[i - 1].time.value());
        }
        if (monotone && i > 0) {
            EXPECT_GE(e.provisioned, cp.trajectory[i - 1].provisioned)
                << "scale-down-free trajectory regressed at point "
                << i;
        }
    }

    // Billing bounds: positive, at most fleet x makespan, and at
    // least the trajectory's provisioned-count integral.
    if (!trace.empty()) {
        EXPECT_GT(cp.replicaSeconds.value(), 0.0);
        EXPECT_LE(cp.replicaSeconds.value(),
                  static_cast<double>(fleetSize) *
                          rep.makespan.value() +
                      1e-9);
        double integral = 0.0;
        for (size_t i = 0; i < cp.trajectory.size(); ++i) {
            double start = cp.trajectory[i].time.value();
            double end = i + 1 < cp.trajectory.size()
                             ? cp.trajectory[i + 1].time.value()
                             : rep.makespan.value();
            end = std::min(end, rep.makespan.value());
            if (end > start)
                integral +=
                    static_cast<double>(cp.trajectory[i].provisioned) *
                    (end - start);
        }
        EXPECT_GE(cp.replicaSeconds.value(), integral - 1e-9);
    }
}

void
expectIdenticalRuns(const FleetReport &a, const FleetReport &b,
                    const std::string &tag)
{
    SCOPED_TRACE(tag);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value());
    EXPECT_DOUBLE_EQ(a.metrics.ttft.p95, b.metrics.ttft.p95);
    EXPECT_DOUBLE_EQ(a.metrics.goodput.value(),
                     b.metrics.goodput.value());
    EXPECT_EQ(a.metrics.generatedTokens, b.metrics.generatedTokens);
    EXPECT_EQ(a.controlPlane.cancelledRequests,
              b.controlPlane.cancelledRequests);
    EXPECT_EQ(a.controlPlane.wastedTokens, b.controlPlane.wastedTokens);
    EXPECT_DOUBLE_EQ(a.controlPlane.replicaSeconds.value(),
                     b.controlPlane.replicaSeconds.value());
    ASSERT_EQ(a.controlPlane.trajectory.size(),
              b.controlPlane.trajectory.size());
    for (size_t i = 0; i < a.controlPlane.trajectory.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.controlPlane.trajectory[i].time.value(),
                         b.controlPlane.trajectory[i].time.value());
        EXPECT_EQ(a.controlPlane.trajectory[i].provisioned,
                  b.controlPlane.trajectory[i].provisioned);
    }
}

TEST(ControlPlaneProperty, InvariantsHoldAcrossSeededPolicySweep)
{
    ModelConfig model = mamba2_2p7b();
    for (const PolicyCase &pc : kPolicies) {
        for (uint32_t seed = 0; seed < kSeedsPerPolicy; ++seed) {
            const std::string tag = std::string(pc.name) + " seed " +
                                    std::to_string(seed);
            auto trace = generateTrace(traceFor(seed));
            FleetConfig fc = fleetFor(pc, seed);
            ASSERT_TRUE(fc.controlPlane.anyEnabled()) << tag;
            ASSERT_EQ(validateFleetConfig(fc), "") << tag;

            Fleet fleet(model, fc);
            FleetReport rep = fleet.run(trace);
            const bool monotone =
                pc.autoscaler && !pc.scaleDown &&
                fc.controlPlane.autoscaler.scaleDownQueueDepth == 0.0;
            checkInvariants(rep, trace, fc, monotone, tag);

            // Determinism: a reused fleet replays bit-exactly.
            FleetReport again = fleet.run(trace);
            expectIdenticalRuns(rep, again, tag);
        }
    }
}

} // namespace
} // namespace pimba
