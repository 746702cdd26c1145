/**
 * @file
 * Control-plane tests (docs/control-plane.md): config validation, the
 * replica activation state machine and its replica-second billing, the
 * byte-identical-when-neutral regression against the classic fleet
 * paths, deadline cancellation accounting, and the three pinned
 * superiority claims — the autoscaler beats the best static replica
 * count on replica-seconds at equal SLO attainment, cache-affinity
 * routing beats JSQ on p95 TTFT for a prefix-heavy workload, and
 * priority tiers keep the high tier's p95 TTFT out of a low-tier
 * flood's queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "presets.h"

namespace pimba {
namespace {

/// The fleet of cluster_disaggregation.json's case @p label.
FleetConfig
disaggCase(const std::string &label)
{
    return presetCase(preset<FleetScenario>("cluster_disaggregation.json"),
                      label);
}

ControlPlaneConfig
autoscalerOn(size_t minR, size_t maxR, size_t initial, double interval,
             double up, double down, double warmup)
{
    ControlPlaneConfig cp;
    cp.autoscaler.enabled = true;
    cp.autoscaler.minReplicas = minR;
    cp.autoscaler.maxReplicas = maxR;
    cp.autoscaler.initialReplicas = initial;
    cp.autoscaler.interval = Seconds(interval);
    cp.autoscaler.scaleUpQueueDepth = up;
    cp.autoscaler.scaleDownQueueDepth = down;
    cp.autoscaler.warmup = Seconds(warmup);
    return cp;
}

double
p95Of(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(
        std::ceil(0.95 * static_cast<double>(v.size())));
    idx = std::min(v.size(), std::max<size_t>(idx, 1)) - 1;
    return v[idx];
}

double
classP95Ttft(const FleetReport &rep, uint32_t classId)
{
    std::vector<double> ttfts;
    for (const CompletedRequest &c : rep.completed)
        if (c.req.classId == classId)
            ttfts.push_back(c.ttft.value());
    return p95Of(std::move(ttfts));
}

TEST(ControlPlaneConfigTest, ValidationCatchesBadConfigs)
{
    ControlPlaneConfig cp; // all features off
    EXPECT_EQ(validateControlPlaneConfig(cp, 4), "");
    EXPECT_FALSE(cp.anyEnabled());

    auto bad = [&](ControlPlaneConfig c, const char *what) {
        EXPECT_NE(validateControlPlaneConfig(c, 4), "") << what;
    };
    ControlPlaneConfig ok = autoscalerOn(1, 4, 1, 2.0, 6.0, 1.0, 2.0);
    EXPECT_EQ(validateControlPlaneConfig(ok, 4), "");

    ControlPlaneConfig c = ok;
    c.autoscaler.minReplicas = 0;
    bad(c, "zero minReplicas");
    c = ok;
    c.autoscaler.maxReplicas = 5;
    bad(c, "maxReplicas beyond the fleet");
    c = ok;
    c.autoscaler.minReplicas = 3;
    c.autoscaler.maxReplicas = 2;
    bad(c, "min above max");
    c = ok;
    c.autoscaler.initialReplicas = 5;
    bad(c, "initial outside [min, max]");
    c = ok;
    c.autoscaler.interval = Seconds(0.0);
    bad(c, "non-positive interval");
    c = ok;
    c.autoscaler.warmup = Seconds(-1.0);
    bad(c, "negative warmup");
    c = ok;
    c.autoscaler.scaleUpQueueDepth = 0.0;
    bad(c, "non-positive scale-up threshold");
    c = ok;
    c.autoscaler.scaleDownQueueDepth = 6.0;
    bad(c, "no hysteresis gap");
    c = ok;
    c.autoscaler.scaleUpWait = Seconds(-0.5);
    bad(c, "negative scale-up wait");

    c = ControlPlaneConfig{};
    c.deadlines.resize(1);
    c.deadlines[0].ttft = Seconds(0.0);
    bad(c, "non-positive deadline");

    // maxReplicas 0 resolves to the fleet size, so a fleet of 4 is the
    // ceiling and a request for initial 4 is fine.
    c = autoscalerOn(1, 0, 4, 2.0, 6.0, 1.0, 2.0);
    EXPECT_EQ(validateControlPlaneConfig(c, 4), "");

    // The fleet validator folds the same checks in, plus the
    // colocated-only restriction.
    FleetConfig fc = disaggCase("2p+2d NVLink (A100)");
    fc.controlPlane = ok;
    EXPECT_NE(validateFleetConfig(fc), "");
    FleetConfig good = disaggCase("colocated 4");
    good.controlPlane = ok;
    EXPECT_EQ(validateFleetConfig(good), "");
}

TEST(ControlPlaneUnit, StateMachineTrajectoryAndBilling)
{
    ControlPlaneConfig cp = autoscalerOn(1, 4, 2, 1.0, 4.0, 0.5, 1.5);
    ControlPlane plane(cp, 4);
    // Idle engines: enough for scaleUp()'s queue probes.
    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    ModelConfig model = mamba2_2p7b();
    std::vector<ServingEngine> engines;
    for (int i = 0; i < 4; ++i)
        engines.emplace_back(sim, model);

    ASSERT_EQ(plane.pool(), (std::vector<size_t>{0, 1}));
    EXPECT_EQ(plane.provisioned(), 2u);
    ASSERT_FALSE(plane.report().trajectory.empty());
    EXPECT_DOUBLE_EQ(plane.report().trajectory[0].time.value(), 0.0);
    EXPECT_EQ(plane.report().trajectory[0].provisioned, 2u);

    // Cold scale-up warms the lowest-index inactive replica.
    ASSERT_TRUE(plane.canScaleUp());
    auto su = plane.scaleUp(Seconds(1.0), engines);
    EXPECT_EQ(su.replica, 2u);
    EXPECT_FALSE(su.instant);
    EXPECT_DOUBLE_EQ(su.ready.value(), 2.5);
    EXPECT_EQ(plane.provisioned(), 3u);
    // Warming replicas are billed but not routable.
    EXPECT_EQ(plane.pool(), (std::vector<size_t>{0, 1}));
    ASSERT_EQ(plane.report().warmups.size(), 1u);
    EXPECT_EQ(plane.report().warmups[0].replica, 2u);
    EXPECT_DOUBLE_EQ(plane.report().warmups[0].start.value(), 1.0);
    EXPECT_DOUBLE_EQ(plane.report().warmups[0].ready.value(), 2.5);

    plane.warmupDone(2, Seconds(2.5));
    EXPECT_EQ(plane.pool(), (std::vector<size_t>{0, 1, 2}));

    // Scale-down drains the highest-index routable replica.
    size_t victim = plane.scaleDown(Seconds(4.0));
    EXPECT_EQ(victim, 2u);
    EXPECT_EQ(plane.pool(), (std::vector<size_t>{0, 1}));
    EXPECT_EQ(plane.drainingReplicas(), (std::vector<size_t>{2}));

    // An *idle* drained replica was released: re-provisioning it pays
    // the full warm-up again (the instant path needs a live backlog).
    auto again = plane.scaleUp(Seconds(5.0), engines);
    EXPECT_EQ(again.replica, 2u);
    EXPECT_FALSE(again.instant);
    EXPECT_DOUBLE_EQ(again.ready.value(), 6.5);

    // Billing: replicas 0 and 1 are active 0..10; replica 2 billed
    // 1..4 (warm-up + service) plus 5..10 (second provision, still
    // warming at the close); replica 3 never provisioned.
    plane.finalize(Seconds(10.0), engines);
    EXPECT_NEAR(plane.report().replicaSeconds.value(),
                10.0 + 10.0 + 3.0 + 5.0, 1e-9);

    // Without the autoscaler the whole fleet is statically routable
    // and bills fleet-size x makespan.
    ControlPlaneConfig tiers;
    tiers.tierByClass = {1, 0};
    ControlPlane fixed(tiers, 3);
    EXPECT_EQ(fixed.pool().size(), 3u);
    EXPECT_FALSE(fixed.canScaleUp());
    EXPECT_FALSE(fixed.canScaleDown());
    fixed.finalize(Seconds(7.0), engines);
    EXPECT_NEAR(fixed.report().replicaSeconds.value(), 21.0, 1e-9);
}

TEST(ControlPlaneRegression, NeutralControlPlaneMatchesClassicRun)
{
    // A control-plane config with anyEnabled() == true but no
    // *behavioral* feature — zero-length prefixes, deadlines too far
    // out to ever fire — must reproduce the control-plane-off run
    // byte-for-byte. This pins the control-plane branches of the one
    // fleet pump (prefix stamping, deadline timers) as inert when they
    // cannot change a decision.
    auto trace = presetTrace(
        preset<FleetScenario>("cluster_routers.json"), 32.0, 96);
    ModelConfig model = mamba2_2p7b();

    for (bool farDeadlines : {false, true}) {
        FleetConfig plainCfg = pimbaJsqFleet(3);
        FleetReport plain = Fleet(model, plainCfg).run(trace);
        EXPECT_FALSE(plain.controlPlane.enabled);

        FleetConfig neutralCfg = pimbaJsqFleet(3);
        neutralCfg.controlPlane.prefixTokensByClass = {0};
        if (farDeadlines) {
            neutralCfg.controlPlane.deadlines.resize(1);
            neutralCfg.controlPlane.deadlines[0].ttft = Seconds(1e6);
            neutralCfg.controlPlane.deadlines[0].total = Seconds(1e6);
        }
        ASSERT_TRUE(neutralCfg.controlPlane.anyEnabled());
        FleetReport ctl = Fleet(model, neutralCfg).run(trace);
        EXPECT_TRUE(ctl.controlPlane.enabled);

        EXPECT_EQ(plain.assignments, ctl.assignments) << farDeadlines;
        EXPECT_DOUBLE_EQ(plain.makespan.value(), ctl.makespan.value());
        EXPECT_DOUBLE_EQ(plain.metrics.ttft.p95, ctl.metrics.ttft.p95);
        EXPECT_DOUBLE_EQ(plain.metrics.tpot.p95, ctl.metrics.tpot.p95);
        EXPECT_DOUBLE_EQ(plain.metrics.goodput.value(),
                         ctl.metrics.goodput.value());
        EXPECT_EQ(plain.metrics.generatedTokens,
                  ctl.metrics.generatedTokens);
        ASSERT_EQ(plain.completed.size(), ctl.completed.size());
        for (size_t i = 0; i < plain.completed.size(); ++i) {
            EXPECT_EQ(plain.completed[i].req.id,
                      ctl.completed[i].req.id);
            EXPECT_DOUBLE_EQ(plain.completed[i].latency.value(),
                             ctl.completed[i].latency.value());
        }
        for (size_t i = 0; i < plain.replicas.size(); ++i)
            EXPECT_EQ(plain.replicas[i].iterations,
                      ctl.replicas[i].iterations);

        // Nothing fired, and a static pool bills N x makespan.
        EXPECT_EQ(ctl.controlPlane.cancelledRequests, 0u);
        EXPECT_EQ(ctl.controlPlane.wastedTokens, 0u);
        EXPECT_TRUE(ctl.controlPlane.warmups.empty());
        EXPECT_NEAR(ctl.controlPlane.replicaSeconds.value(),
                    3.0 * ctl.makespan.value(), 1e-9);
    }
}

TEST(ControlPlaneDeadlines, CancellationIsAccountedAndConserved)
{
    // Queue-saturating load with a TTFT deadline no queued tail can
    // meet: a healthy share of requests must cancel, and every counter
    // has to balance — fleet-wide and per replica.
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 96.0;
    tc.numRequests = 300;
    tc.lengths = LengthDistribution::Uniform;
    tc.inputLen = 256;
    tc.inputLenMax = 768;
    tc.outputLen = 64;
    tc.outputLenMax = 192;
    tc.seed = 0xCA9CE11Eu;
    auto trace = generateTrace(tc);

    FleetConfig fc = pimbaJsqFleet(2);
    fc.controlPlane.deadlines.resize(1);
    fc.controlPlane.deadlines[0].ttft = Seconds(0.5);
    FleetReport rep = Fleet(mamba2_2p7b(), fc).run(trace);

    EXPECT_GT(rep.controlPlane.cancelledRequests, 0u);
    EXPECT_GT(rep.controlPlane.wastedTokens, 0u);
    EXPECT_EQ(rep.completed.size() + rep.controlPlane.cancelledRequests,
              trace.size());
    EXPECT_EQ(rep.metrics.requests, rep.completed.size());
    EXPECT_EQ(rep.metrics.cancelledRequests,
              rep.controlPlane.cancelledRequests);
    EXPECT_EQ(rep.metrics.wastedTokens, rep.controlPlane.wastedTokens);
    uint64_t perReplicaCancelled = 0, perReplicaWasted = 0,
             perReplicaDone = 0;
    for (const ServingReport &r : rep.replicas) {
        perReplicaCancelled += r.cancelledRequests;
        perReplicaWasted += r.wastedTokens;
        perReplicaDone += r.completedRequests;
    }
    EXPECT_EQ(perReplicaCancelled, rep.controlPlane.cancelledRequests);
    EXPECT_EQ(perReplicaWasted, rep.controlPlane.wastedTokens);
    EXPECT_EQ(perReplicaDone + perReplicaCancelled, trace.size());

    // Cancelled requests deliver nothing: the fleet's token counter is
    // exactly the sum over *completed* requests.
    uint64_t delivered = 0;
    for (const CompletedRequest &c : rep.completed)
        delivered += c.req.outputLen;
    EXPECT_EQ(rep.metrics.generatedTokens, delivered);
}

TEST(ControlPlaneSuperiority, AutoscalerBeatsBestStaticOnReplicaSeconds)
{
    // A day-shaped load: a dense working-hours burst that needs most
    // of the fleet, then a long sparse tail that needs almost none of
    // it. The best static count is sized for the burst and burns
    // replica-seconds through the whole tail; the autoscaler must
    // match its SLO attainment and bill strictly less.
    TraceConfig burst;
    burst.arrivals = ArrivalProcess::Poisson;
    burst.ratePerSec = 150.0;
    burst.numRequests = 1500;
    burst.lengths = LengthDistribution::Uniform;
    burst.inputLen = 128;
    burst.inputLenMax = 512;
    burst.outputLen = 32;
    burst.outputLenMax = 128;
    burst.seed = 0x5CA1AB1Eu;
    auto trace = generateTrace(burst);
    Seconds burstEnd = trace.back().arrival;
    TraceConfig tail = burst;
    tail.ratePerSec = 4.0;
    tail.numRequests = 120;
    tail.seed = 0x7A11E00Du;
    for (Request r : generateTrace(tail)) {
        r.id += trace.size() + 1000;
        r.arrival = r.arrival + burstEnd;
        trace.push_back(r);
    }
    ModelConfig model = mamba2_2p7b();
    SloConfig slo;
    slo.ttft = Seconds(2.5);
    slo.tpot = Seconds(0.05);
    const double kAttainment = 0.95;

    size_t bestStatic = 0;
    Seconds bestStaticBill{0.0};
    for (size_t n = 1; n <= 4; ++n) {
        FleetConfig fc = pimbaJsqFleet(n);
        fc.slo = slo;
        FleetReport rep = Fleet(model, fc).run(trace);
        if (sustainsSlo(rep.metrics, kAttainment)) {
            bestStatic = n;
            bestStaticBill =
                Seconds(static_cast<double>(n) * rep.makespan.value());
            break;
        }
    }
    // The claim is vacuous if one replica already suffices — the trace
    // above is tuned so it does not.
    ASSERT_GE(bestStatic, 2u);

    FleetConfig fc = pimbaJsqFleet(4);
    fc.slo = slo;
    fc.controlPlane = autoscalerOn(1, 4, 1, 0.5, 4.0, 1.0, 0.5);
    fc.controlPlane.autoscaler.scaleUpWait = Seconds(0.5);
    FleetReport scaled = Fleet(model, fc).run(trace);

    EXPECT_TRUE(sustainsSlo(scaled.metrics, kAttainment));
    EXPECT_LT(scaled.controlPlane.replicaSeconds.value(),
              bestStaticBill.value());
    // And it actually scaled — up for the burst, down for the tail.
    size_t peak = 0, trough = 4;
    for (const ScaleEvent &e : scaled.controlPlane.trajectory) {
        peak = std::max(peak, e.provisioned);
        trough = std::min(trough, e.provisioned);
    }
    EXPECT_GT(peak, 1u);
    EXPECT_LT(trough, peak);
}

TEST(ControlPlaneSuperiority, CacheAffinityBeatsJsqOnPrefixHeavyLoad)
{
    // Many tenant classes sharing long per-class prefixes, few
    // replicas: JSQ sprays every class across the whole fleet and pays
    // the cold prefix prefill on ~every replica, while the affinity
    // router converges each class onto the replica already holding its
    // prefix. Both fleets run identical engines and prefixes — only
    // the routing differs.
    const int kClasses = 24;
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 40.0;
    tc.numRequests = 600;
    for (int c = 0; c < kClasses; ++c) {
        TraceClass cls;
        cls.name = "tenant" + std::to_string(c);
        cls.weight = 1.0;
        cls.lengths = LengthDistribution::Fixed;
        cls.inputLen = 320;
        cls.outputLen = 24;
        tc.classes.push_back(cls);
    }
    tc.seed = 0xAFF1117Eu;
    auto trace = generateTrace(tc);
    ModelConfig model = mamba2_2p7b();

    auto runWith = [&](RouterPolicy router) {
        FleetConfig fc = disaggCase("colocated 4");
        fc.router = router;
        fc.controlPlane.prefixTokensByClass.assign(kClasses, 256);
        return Fleet(model, fc).run(trace);
    };
    FleetReport affinity = runWith(RouterPolicy::CacheAffinity);
    FleetReport jsq = runWith(RouterPolicy::JoinShortestQueue);

    EXPECT_LT(affinity.metrics.ttft.p95, jsq.metrics.ttft.p95);
    // Affinity routing must not trade the TTFT win for throughput
    // (makespan noise allows a sliver of goodput slack).
    EXPECT_GE(affinity.metrics.goodput.value(),
              0.98 * jsq.metrics.goodput.value());
}

TEST(ControlPlaneSuperiority, HighTierTtftSurvivesLowTierFlood)
{
    // A sparse interactive class (tier 1) under a saturating batch
    // flood (tier 0). Tiered admission queues the interactive arrivals
    // ahead of the flood, so its p95 TTFT must come in far below the
    // untiered FIFO run where it waits behind the batch backlog.
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 80.0;
    tc.numRequests = 400;
    TraceClass interactive;
    interactive.name = "interactive";
    interactive.weight = 1.0;
    interactive.lengths = LengthDistribution::Uniform;
    interactive.inputLen = 64;
    interactive.inputLenMax = 192;
    interactive.outputLen = 16;
    interactive.outputLenMax = 48;
    TraceClass batch;
    batch.name = "batch";
    batch.weight = 7.0;
    batch.lengths = LengthDistribution::Uniform;
    batch.inputLen = 256;
    batch.inputLenMax = 1024;
    batch.outputLen = 64;
    batch.outputLenMax = 192;
    tc.classes = {interactive, batch};
    tc.seed = 0xF100DEDu;
    auto trace = generateTrace(tc);
    ModelConfig model = mamba2_2p7b();

    FleetConfig tiered = pimbaJsqFleet(2);
    tiered.controlPlane.tierByClass = {1, 0};
    FleetReport protectedRun = Fleet(model, tiered).run(trace);

    FleetReport floodedRun =
        Fleet(model, pimbaJsqFleet(2)).run(trace);

    double protectedP95 = classP95Ttft(protectedRun, 0);
    double floodedP95 = classP95Ttft(floodedRun, 0);
    ASSERT_GT(protectedP95, 0.0);
    ASSERT_GT(floodedP95, 0.0);
    EXPECT_LT(protectedP95, floodedP95);
    // Protection is not starvation: every batch request still
    // completes (no deadlines are configured here).
    EXPECT_EQ(protectedRun.completed.size(), trace.size());
}

} // namespace
} // namespace pimba
