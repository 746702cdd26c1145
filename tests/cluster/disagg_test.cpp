/**
 * @file
 * Prefill/decode disaggregation tests: the shipped bytes follow the
 * simulator's footprint math, the link transfer is charged into TTFT
 * (a slower link strictly raises it), fleet-level token conservation
 * spans both stages, single-token requests never cross the link,
 * replay is deterministic, and the pinned comparison against the
 * colocated baseline — decode replicas freed of prefill interference
 * show strictly lower tail TPOT on the same trace. Under round-robin
 * each pool splits into standalone engines: every replica report
 * equals, bit for bit, an engine fed its share of the trace or of the
 * hand-offs derived from the prefill records and the link model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "bit_equal.h"
#include "cluster/fleet.h"
#include "presets.h"

namespace pimba {
namespace {

/// cluster_disaggregation.json: colocated 4x Pimba vs 2 prefill +
/// 2 decode over NVLink or InfiniBand, Mamba-2 2.7B.
const FleetScenario &
disaggPreset()
{
    static const FleetScenario sc =
        preset<FleetScenario>("cluster_disaggregation.json");
    return sc;
}

FleetConfig
colocatedFleet()
{
    return presetCase(disaggPreset(), "colocated 4");
}

FleetConfig
nvlinkFleet()
{
    return presetCase(disaggPreset(), "2p+2d NVLink (A100)");
}

FleetConfig
infinibandFleet()
{
    return presetCase(disaggPreset(), "2p+2d InfiniBand NDR");
}

TEST(ClusterDisagg, CompletenessTokenConservationAndStageSplit)
{
    auto trace = presetTrace(disaggPreset(), 24.0, 96);
    Fleet fleet(mamba2_2p7b(), nvlinkFleet());
    FleetReport rep = fleet.run(trace);

    ASSERT_EQ(rep.completed.size(), trace.size());
    std::set<uint64_t> ids;
    uint64_t expected = 0;
    for (const Request &r : trace)
        expected += r.outputLen;
    for (const CompletedRequest &c : rep.completed)
        ids.insert(c.req.id);
    EXPECT_EQ(ids.size(), trace.size());

    // Prefill replicas deliver 1 token per request, decode replicas the
    // remaining outputLen - 1; the fleet total must conserve.
    uint64_t generated = 0;
    for (const ServingReport &r : rep.replicas) {
        generated += r.generatedTokens;
        // Per-replica metrics must agree with the replica's own
        // delivered counter — a decode replica does not re-claim the
        // first token its prefill replica already delivered.
        EXPECT_EQ(r.metrics.generatedTokens, r.generatedTokens);
    }
    EXPECT_EQ(generated, expected);
    EXPECT_EQ(rep.metrics.generatedTokens, expected);

    // Stage split respected: prefill on replicas [0, 2), decode on
    // [2, 4), every multi-token request handed off exactly once.
    uint64_t multiToken = 0;
    for (const Request &r : trace)
        if (r.outputLen > 1)
            ++multiToken;
    EXPECT_EQ(rep.transfer.transfers, multiToken);
    for (const Assignment &a : rep.assignments) {
        EXPECT_LT(a.replica, 2u);
        if (a.decodeReplica >= 0) {
            EXPECT_GE(a.decodeReplica, 2);
        }
    }
    // Prefill replicas hand every completion to the fleet and keep
    // counters only; decode replicas keep the records the fleet joins.
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(rep.replicas[i].completed.empty()) << "replica " << i;
        EXPECT_GT(rep.replicas[i].completedRequests, 0u) << "replica " << i;
    }
    EXPECT_EQ(rep.replicas[2].completed.size() +
                  rep.replicas[3].completed.size(),
              multiToken);
}

TEST(ClusterDisagg, TransferBytesFollowFootprintMath)
{
    // Fixed-length OPT trace: the KV cache grows per token, so every
    // hand-off ships exactly state + KV at inputLen + 1 tokens.
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 8.0;
    tc.numRequests = 24;
    tc.inputLen = 256;
    tc.outputLen = 32;
    tc.seed = 0x5EEDBEEFu;
    auto trace = generateTrace(tc);

    ModelConfig model = opt2p7b();
    Fleet fleet(model, nvlinkFleet());
    FleetReport rep = fleet.run(trace);

    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    MemoryUsage mem = sim.memoryUsage(model, 1, 256 + 1);
    Bytes perTransfer = mem.state + mem.kvCache;
    ASSERT_EQ(rep.transfer.transfers, trace.size());
    EXPECT_GT(perTransfer, Bytes(0.0));
    EXPECT_NEAR(rep.transfer.totalBytes.value(),
                perTransfer.value() * static_cast<double>(trace.size()),
                1e-6 * rep.transfer.totalBytes.value());
    EXPECT_GT(rep.transfer.totalSeconds, Seconds(0.0));
    EXPECT_GT(rep.transfer.totalEnergyJ, Joules(0.0));
    EXPECT_GT(rep.transfer.perTransfer.p50, 0.0);
}

TEST(ClusterDisagg, TransferIsChargedIntoTtft)
{
    auto trace = presetTrace(disaggPreset(), 24.0, 96);
    ModelConfig model = mamba2_2p7b();

    FleetReport nvlink = Fleet(model, nvlinkFleet()).run(trace);
    FleetReport ib = Fleet(model, infinibandFleet()).run(trace);

    // The prefill stage is identical in both runs; only the link
    // differs, and every hand-off pays strictly more on InfiniBand —
    // so the transfer-inclusive TTFT must be strictly higher.
    EXPECT_GT(ib.transfer.perTransfer.p50,
              nvlink.transfer.perTransfer.p50);
    EXPECT_GT(ib.metrics.ttft.mean, nvlink.metrics.ttft.mean);
    EXPECT_GT(ib.transfer.meanTtftShare, nvlink.transfer.meanTtftShare);
    EXPECT_GT(nvlink.transfer.meanTtftShare, 0.0);
    EXPECT_LT(ib.transfer.meanTtftShare, 1.0);

    // TTFT always covers the wait for the blocks to land, and the
    // decode stage can only add time after it.
    for (const CompletedRequest &c : nvlink.completed) {
        EXPECT_GT(c.ttft, Seconds(0.0));
        EXPECT_GE(c.latency, c.ttft - Seconds(1e-12));
        EXPECT_GE(c.tpot, Seconds(0.0));
    }
}

TEST(ClusterDisagg, DisaggregationCutsTailTpotAgainstColocated)
{
    // The DistServe claim on the same trace and the same 4 devices:
    // colocated replicas interleave prefill chunks with decode steps,
    // inflating inter-token gaps; dedicated decode replicas do not.
    // The transfer-inclusive TTFT is reported against the colocated
    // baseline by cluster_disaggregation.json; here both sides are
    // pinned.
    auto trace = presetTrace(disaggPreset(), 24.0, 192);
    ModelConfig model = mamba2_2p7b();

    FleetReport coloRep = Fleet(model, colocatedFleet()).run(trace);
    FleetReport disRep = Fleet(model, nvlinkFleet()).run(trace);

    EXPECT_LT(disRep.metrics.tpot.p95, coloRep.metrics.tpot.p95);
    // Both fleets must be healthy for the comparison to mean anything.
    EXPECT_GT(coloRep.metrics.goodput, RequestsPerSecond(0.0));
    EXPECT_GT(disRep.metrics.goodput, RequestsPerSecond(0.0));
    EXPECT_EQ(disRep.completed.size(), coloRep.completed.size());
}

TEST(ClusterDisagg, SingleTokenRequestsCompleteAtPrefillStage)
{
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Fixed;
    tc.ratePerSec = 50.0;
    tc.numRequests = 12;
    tc.inputLen = 128;
    tc.outputLen = 1;
    auto trace = generateTrace(tc);

    Fleet fleet(mamba2_2p7b(), nvlinkFleet());
    FleetReport rep = fleet.run(trace);
    ASSERT_EQ(rep.completed.size(), trace.size());
    EXPECT_EQ(rep.transfer.transfers, 0u);
    EXPECT_DOUBLE_EQ(rep.transfer.totalBytes.value(), 0.0);
    for (const Assignment &a : rep.assignments)
        EXPECT_EQ(a.decodeReplica, -1);
    // Decode replicas never saw a request.
    EXPECT_EQ(rep.replicas[2].completed.size(), 0u);
    EXPECT_EQ(rep.replicas[3].completed.size(), 0u);
}

TEST(ClusterDisagg, DecodeSidePreemptionConservesTokens)
{
    // Squeeze the decode replicas' block pools until eviction fires
    // mid-decode. A preloaded victim's shipped prompt is assumed to be
    // retained in the transfer staging buffer (no second link
    // transfer), so only its locally decoded tokens are recompute debt
    // — and the fleet totals must still conserve.
    ModelConfig model = opt2p7b(); // KV growth forces decode pressure
    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    Bytes weights = sim.weightFootprint(model);

    FleetConfig cfg = nvlinkFleet();
    for (size_t i = cfg.prefillReplicas; i < cfg.replicas.size(); ++i)
        cfg.replicas[i].engine.memoryBudget =
            weights + 3.0 * sim.requestFootprint(model, 256 + 192);

    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Fixed;
    tc.ratePerSec = 200.0; // near-simultaneous burst
    tc.numRequests = 12;
    tc.inputLen = 256;
    tc.outputLen = 192;
    auto trace = generateTrace(tc);

    FleetReport rep = Fleet(model, cfg).run(trace);
    ASSERT_EQ(rep.completed.size(), trace.size());

    uint64_t decodePreemptions = 0, decodeRecomputed = 0;
    for (size_t i = cfg.prefillReplicas; i < cfg.replicas.size(); ++i) {
        decodePreemptions += rep.replicas[i].preemptions;
        decodeRecomputed += rep.replicas[i].recomputedTokens;
    }
    EXPECT_GT(decodePreemptions, 0u);
    // Recompute debt counts locally decoded tokens only — it can never
    // reach the shipped-prompt volume a full re-prefill would imply.
    EXPECT_GT(decodeRecomputed, 0u);
    EXPECT_LT(decodeRecomputed, decodePreemptions * 256);

    uint64_t generated = 0, expected = 0;
    for (const ServingReport &r : rep.replicas)
        generated += r.generatedTokens;
    for (const Request &r : trace)
        expected += r.outputLen;
    EXPECT_EQ(generated, expected);
    EXPECT_EQ(rep.transfer.transfers, trace.size());
}

TEST(ClusterDisagg, DeterministicReplayForEveryRouterPolicy)
{
    auto trace = presetTrace(disaggPreset(), 24.0, 48);
    ModelConfig model = mamba2_2p7b();
    for (RouterPolicy policy : allRouterPolicies()) {
        FleetConfig cfg = nvlinkFleet();
        cfg.router = policy;
        FleetReport a = Fleet(model, cfg).run(trace);
        FleetReport b = Fleet(model, cfg).run(trace);
        EXPECT_EQ(a.assignments, b.assignments) << routerName(policy);
        EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value()) << routerName(policy);
        EXPECT_DOUBLE_EQ(a.metrics.ttft.p95, b.metrics.ttft.p95)
            << routerName(policy);
        EXPECT_DOUBLE_EQ(a.transfer.totalSeconds.value(),
                         b.transfer.totalSeconds.value())
            << routerName(policy);
    }
}

/**
 * Check a round-robin disaggregated run of @p trace against standalone
 * engines, one per replica. Prefill replica i is an engine fed the
 * i-mod-Np sub-trace as single-token requests, run with a sink (as the
 * fleet runs it). Each of its multi-token records becomes a hand-off
 * that is ready at the prefill finish plus the link time of the
 * request's state + KV at prompt + 1 tokens. Ordered by (ready, id),
 * hand-offs j, j + Nd, j + 2Nd, ..., each arriving when ready, are
 * decode replica j's trace, fed through submitPrefilled. Returns the
 * decode pool's evictions.
 */
uint64_t
expectSplitEqualsStages(const ModelConfig &model, const FleetConfig &fc,
                        const std::vector<Request> &trace)
{
    const FleetReport fleet = Fleet(model, fc).run(trace);
    const size_t np = fc.prefillReplicas;
    const size_t nd = fc.replicas.size() - np;
    EXPECT_EQ(fleet.mode, FleetMode::Disaggregated);
    if (fleet.replicas.size() != np + nd) {
        ADD_FAILURE() << fleet.replicas.size() << " replica reports";
        return 0;
    }

    std::unordered_map<uint64_t, Request> original;
    for (const Request &r : trace)
        original.emplace(r.id, r);
    const LinkModel link(fc.link);
    std::vector<Request> handoffs;
    uint64_t transfers = 0;
    Bytes shipped{0.0};
    for (size_t i = 0; i < np; ++i) {
        SCOPED_TRACE("prefill replica " + std::to_string(i));
        std::vector<Request> firstTokens = everyNth(trace, i, np);
        for (Request &r : firstTokens)
            r.outputLen = 1;
        const ReplicaConfig &rc = fc.replicas[i];
        ServingEngine alone(ServingSimulator(makeSystem(rc.kind, rc.nGpus)),
                            model, rc.engine);
        RecordingSink sink;
        expectBitEqual(fleet.replicas[i], alone.run(firstTokens, &sink));
        for (const CompletedRequest &c : sink.seen) {
            Request r = original.at(c.req.id);
            if (r.outputLen == 1)
                continue;
            const MemoryUsage mem =
                alone.simulator().memoryUsage(model, 1, r.inputLen + 1);
            const Bytes bytes = mem.state + mem.kvCache;
            r.arrival = c.req.arrival + c.latency +
                        link.transfer(bytes).seconds;
            handoffs.push_back(r);
            if (bytes > Bytes(0.0)) {
                ++transfers;
                shipped += bytes;
            }
        }
    }
    EXPECT_EQ(fleet.transfer.transfers, transfers);
    expectSameBits(fleet.transfer.totalBytes.value(), shipped.value(),
                   "transfer bytes");

    std::sort(handoffs.begin(), handoffs.end(),
              [](const Request &a, const Request &b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  return a.id < b.id;
              });
    uint64_t evictions = 0;
    for (size_t j = 0; j < nd; ++j) {
        SCOPED_TRACE("decode replica " + std::to_string(j));
        const ReplicaConfig &rc = fc.replicas[np + j];
        ServingEngine alone(ServingSimulator(makeSystem(rc.kind, rc.nGpus)),
                            model, rc.engine);
        alone.begin();
        for (const Request &r : everyNth(handoffs, j, nd))
            alone.submitPrefilled(r);
        alone.drain();
        const ServingReport decode = alone.finish();
        expectBitEqual(fleet.replicas[np + j], decode);
        evictions += decode.preemptions;
    }
    return evictions;
}

TEST(ClusterDisagg, RoundRobinSplitEqualsStandaloneStages)
{
    // Both 2p+2d links on Mamba-2 (no KV growth) across policies, seeds
    // and rates, then OPT-2.7B on NVLink with decode budgets of three
    // 768-token footprints past the weights, so KV growth evicts on the
    // decode side.
    const ModelConfig mamba = mamba2_2p7b();
    const ModelConfig opt = opt2p7b();
    const ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    size_t cases = 0;
    uint64_t optEvictions = 0;
    for (SchedulerPolicy policy : allPolicies()) {
        auto fleetOf = [&](FleetConfig fc) {
            fc.router = RouterPolicy::RoundRobin;
            for (ReplicaConfig &rc : fc.replicas)
                rc.engine.policy = policy;
            return fc;
        };
        for (uint32_t seed : {0u, 1u, 2u}) {
            for (double rate : {8.0, 24.0, 64.0}) {
                TraceConfig tc = disaggPreset().trace;
                tc.ratePerSec = rate;
                tc.numRequests = 48;
                tc.seed += 7919u * seed;
                const auto trace = generateTrace(tc);
                for (const FleetConfig &fc :
                     {nvlinkFleet(), infinibandFleet()}) {
                    SCOPED_TRACE(policyName(policy) + " seed " +
                                 std::to_string(seed) + " rate " +
                                 std::to_string(rate) + " " +
                                 fc.link.name);
                    expectSplitEqualsStages(mamba, fleetOf(fc), trace);
                    ++cases;
                }
            }
        }
        FleetConfig fc = fleetOf(nvlinkFleet());
        for (size_t i = fc.prefillReplicas; i < fc.replicas.size(); ++i)
            fc.replicas[i].engine.memoryBudget =
                sim.weightFootprint(opt) +
                3.0 * sim.requestFootprint(opt, 512 + 256);
        for (double rate : {24.0, 64.0}) {
            SCOPED_TRACE(policyName(policy) + " OPT-2.7B rate " +
                         std::to_string(rate));
            optEvictions += expectSplitEqualsStages(
                opt, fc, presetTrace(disaggPreset(), rate, 48));
            ++cases;
        }
    }
    EXPECT_EQ(cases, 60u);
    // The OPT cases only cover the decode side's eviction path if it ran.
    EXPECT_GT(optEvictions, 0u);
}

} // namespace
} // namespace pimba
