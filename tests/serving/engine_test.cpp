/**
 * @file
 * Continuous-batching engine tests: token conservation, deterministic
 * replay, latency-accounting invariants, and chunked-prefill counting.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/units.h"
#include "serving/engine.h"
#include "serving/trace.h"

namespace pimba {
namespace {

TraceConfig
smallTrace()
{
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 16.0;
    tc.numRequests = 40;
    tc.lengths = LengthDistribution::Uniform;
    tc.inputLen = 64;
    tc.inputLenMax = 300;
    tc.outputLen = 8;
    tc.outputLenMax = 48;
    tc.seed = 77;
    return tc;
}

ServingEngine
makeEngine(SystemKind kind, const ModelConfig &model,
           EngineConfig cfg = {})
{
    ServingSimulator sim(makeSystem(kind));
    return ServingEngine(sim, model, cfg);
}

TEST(ServingEngine, TokenConservation)
{
    auto trace = generateTrace(smallTrace());
    auto engine = makeEngine(SystemKind::PIMBA, mamba2_2p7b());
    ServingReport rep = engine.run(trace);

    ASSERT_EQ(rep.completed.size(), trace.size());
    uint64_t expected = 0;
    for (const auto &r : trace)
        expected += r.outputLen;
    EXPECT_EQ(rep.generatedTokens, expected);
    EXPECT_EQ(rep.metrics.generatedTokens, expected);

    // Every request completes exactly once.
    std::set<uint64_t> ids;
    for (const auto &c : rep.completed)
        ids.insert(c.req.id);
    EXPECT_EQ(ids.size(), trace.size());
}

TEST(ServingEngine, DeterministicReplay)
{
    auto trace = generateTrace(smallTrace());
    auto a = makeEngine(SystemKind::GPU, mamba2_2p7b()).run(trace);
    auto b = makeEngine(SystemKind::GPU, mamba2_2p7b()).run(trace);

    EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value());
    EXPECT_EQ(a.iterations, b.iterations);
    ASSERT_EQ(a.completed.size(), b.completed.size());
    for (size_t i = 0; i < a.completed.size(); ++i) {
        EXPECT_EQ(a.completed[i].req.id, b.completed[i].req.id);
        EXPECT_DOUBLE_EQ(a.completed[i].ttft.value(),
                         b.completed[i].ttft.value());
        EXPECT_DOUBLE_EQ(a.completed[i].latency.value(),
                         b.completed[i].latency.value());
    }
}

TEST(ServingEngine, LatencyAccountingInvariants)
{
    auto trace = generateTrace(smallTrace());
    auto rep = makeEngine(SystemKind::GPU_PIM, mamba2_2p7b()).run(trace);
    for (const auto &c : rep.completed) {
        EXPECT_GT(c.ttft, Seconds(0.0));
        EXPECT_GE(c.latency, c.ttft);
        EXPECT_GE(c.tpot, Seconds(0.0));
        EXPECT_LE(c.req.arrival + c.latency,
                  rep.makespan + Seconds(1e-9));
    }
    EXPECT_GT(rep.metrics.tokensPerSec, TokensPerSecond(0.0));
    EXPECT_GE(rep.metrics.ttft.p99, rep.metrics.ttft.p50);
    EXPECT_GE(rep.metrics.latency.max, rep.metrics.latency.p99);
}

TEST(ServingEngine, SingleTokenOutputsHaveZeroTpot)
{
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Fixed;
    tc.ratePerSec = 100.0;
    tc.numRequests = 5;
    tc.inputLen = 128;
    tc.outputLen = 1;
    auto rep = makeEngine(SystemKind::PIMBA, gla2p7b())
                   .run(generateTrace(tc));
    ASSERT_EQ(rep.completed.size(), 5u);
    for (const auto &c : rep.completed) {
        EXPECT_DOUBLE_EQ(c.tpot.value(), 0.0);
        EXPECT_DOUBLE_EQ(c.latency.value(), c.ttft.value());
    }
}

TEST(ServingEngine, IdleGapsAdvanceTheClock)
{
    // Two requests a minute apart: the engine must jump the idle gap,
    // not spin, and the second request's TTFT must not include it.
    std::vector<Request> trace(2);
    trace[0] = Request{0, Seconds(0.0), 128, 4};
    trace[1] = Request{1, Seconds(60.0), 128, 4};
    auto rep = makeEngine(SystemKind::GPU, mamba2_2p7b()).run(trace);
    ASSERT_EQ(rep.completed.size(), 2u);
    EXPECT_GT(rep.makespan, Seconds(60.0));
    for (const auto &c : rep.completed)
        EXPECT_LT(c.ttft, Seconds(1.0));
}

TEST(ServingEngine, ChunkedPrefillRunsExpectedChunks)
{
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Fixed;
    tc.ratePerSec = 1000.0;
    tc.numRequests = 6;
    tc.inputLen = 1000; // 2 chunks of 512
    tc.outputLen = 2;
    EngineConfig ec;
    ec.prefillChunk = Tokens(512);
    auto rep = makeEngine(SystemKind::PIMBA, mamba2_2p7b(), ec)
                   .run(generateTrace(tc));
    uint64_t expected =
        6 * ceilDiv<uint64_t>(1000, ec.prefillChunk.value());
    EXPECT_EQ(rep.prefillChunks, expected);
}

TEST(ServingEngine, BatchCapIsRespected)
{
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Fixed;
    tc.ratePerSec = 1000.0; // everything arrives at once
    tc.numRequests = 32;
    tc.inputLen = 64;
    tc.outputLen = 32;
    EngineConfig ec;
    ec.maxBatch = 4;
    auto rep = makeEngine(SystemKind::GPU, hgrn2_2p7b(), ec)
                   .run(generateTrace(tc));
    EXPECT_EQ(rep.completed.size(), 32u);
    EXPECT_LE(rep.peakBatch, 4);
    EXPECT_EQ(rep.peakBatch, 4); // load is high enough to fill the cap
}

TEST(ServingEngine, QueueingDelayRecordedPerRequest)
{
    // A burst deeper than the batch cap forces later requests to wait
    // for admission; that wait must land in CompletedRequest::queueing
    // and the fleet percentiles.
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Fixed;
    tc.ratePerSec = 1000.0;
    tc.numRequests = 16;
    tc.inputLen = 128;
    tc.outputLen = 16;
    EngineConfig ec;
    ec.maxBatch = 4;
    auto rep = makeEngine(SystemKind::GPU, mamba2_2p7b(), ec)
                   .run(generateTrace(tc));
    ASSERT_EQ(rep.completed.size(), 16u);
    bool waited = false;
    for (const auto &c : rep.completed) {
        EXPECT_GE(c.queueing, Seconds(0.0));
        // admission precedes token
        EXPECT_LE(c.queueing, c.ttft + Seconds(1e-12));
        waited |= c.queueing > Seconds(0.0);
    }
    EXPECT_TRUE(waited); // the burst cannot all admit at time zero
    EXPECT_GT(rep.metrics.queueing.max, 0.0);
    EXPECT_GE(rep.metrics.queueing.p95, rep.metrics.queueing.p50);
}

TEST(ServingEngine, PreemptionCountsSurfacePerRequest)
{
    // Tight budget + long outputs: decode growth must evict. Every
    // eviction increments exactly one (later-completing) request's
    // counter, so the per-request counts sum to the report total.
    ModelConfig model = opt2p7b();
    ServingSimulator sim(makeSystem(SystemKind::GPU));
    Bytes weights = sim.memoryUsage(model, 1, 0).weights;
    EngineConfig ec;
    ec.memoryBudget = weights + 3.0 * sim.requestFootprint(model, 320);

    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Fixed;
    tc.ratePerSec = 1000.0;
    tc.numRequests = 10;
    tc.inputLen = 64;
    tc.outputLen = 256;
    auto rep = ServingEngine(sim, model, ec).run(generateTrace(tc));

    ASSERT_EQ(rep.completed.size(), 10u);
    EXPECT_GT(rep.preemptions, 0u);
    uint64_t perRequest = 0;
    for (const auto &c : rep.completed)
        perRequest += c.preemptions;
    EXPECT_EQ(perRequest, rep.preemptions);
    EXPECT_GT(rep.metrics.preemptions.max, 0.0);
}

TEST(ServingEngine, PreloadedVictimBeforeFirstLocalDecodeKeepsCounts)
{
    // Regression: a preloaded (disaggregated) request evicted before
    // its first *local* decode step sits at generated == 1 — only the
    // imported first token, produced and counted by its prefill
    // replica. The eviction must contribute zero recompute debt and
    // must not touch generatedTokens; the old unclamped
    // `generated - 1` arithmetic wrapped the unsigned counters here.
    ModelConfig model = opt2p7b();
    ServingSimulator sim(makeSystem(SystemKind::GPU));

    // Rebuild the engine's own block arithmetic (see begin()) so the
    // pool holds *exactly* both admission pledges: A's one-chunk
    // prefill then demands its full pledge while B's first decode
    // demands one block past its pledge -> B (most recently admitted)
    // is evicted in the very iteration it was admitted.
    const Bytes fixed = sim.requestFootprint(model, 0);
    const Bytes perToken = sim.requestFootprint(model, 1) - fixed;
    EngineConfig ec; // blockTokens 16, prefillChunk 512, FCFS
    BlockMapper mapper = BlockMapper::make(fixed, perToken, ec.blockTokens);

    Request a; // plain request, admitted first (front of the queue)
    a.id = 1;
    a.inputLen = 256; // one prefill chunk, pledge blocksFor(257)
    a.outputLen = 64;
    Request b; // preloaded: arrives in Decode with generated == 1
    b.id = 2;
    b.inputLen = 63; // pledge blocksFor(64); first decode wants a
    b.outputLen = 8; // 65th cached token = one block past the pledge
    ASSERT_EQ(mapper.blocksFor(Tokens(b.inputLen + 2)),
              mapper.blocksFor(Tokens(b.inputLen + 1)) + Blocks(1));

    Blocks pool = mapper.blocksFor(Tokens(a.inputLen + 1)) +
                  mapper.blocksFor(Tokens(b.inputLen + 1));
    ec.memoryBudget =
        sim.weightFootprint(model) +
        (static_cast<double>(pool.value()) + 0.5) * mapper.blockBytes;

    ServingEngine engine(sim, model, ec);
    engine.begin();
    engine.submit(a);
    engine.submitPrefilled(b);
    engine.drain();
    ServingReport rep = engine.finish();

    ASSERT_EQ(rep.completed.size(), 2u);
    EXPECT_GT(rep.preemptions, 0u);
    // Every eviction of B happened at generated == 1: no local decode
    // was ever discarded, so no recompute debt and no token clawback.
    EXPECT_EQ(rep.recomputedTokens, 0u);
    EXPECT_EQ(rep.generatedTokens, a.outputLen + b.outputLen - 1);
    for (const auto &c : rep.completed) {
        if (c.req.id == b.id) {
            EXPECT_GT(c.preemptions, 0u);
        }
    }

    // The pressured run delivers exactly what a pressure-free run of
    // the same workload delivers (a wrap would corrupt the totals).
    EngineConfig roomy = ec;
    roomy.memoryBudget = Bytes(0.0); // default: the full HBM capacity
    ServingEngine reference(sim, model, roomy);
    reference.begin();
    reference.submit(a);
    reference.submitPrefilled(b);
    reference.drain();
    ServingReport ref = reference.finish();
    EXPECT_EQ(ref.preemptions, 0u);
    EXPECT_EQ(rep.generatedTokens, ref.generatedTokens);
    EXPECT_EQ(rep.completed.size(), ref.completed.size());
}

TEST(ServingEngine, WorksForAllFiveSystems)
{
    TraceConfig tc;
    tc.numRequests = 8;
    tc.ratePerSec = 8.0;
    tc.inputLen = 128;
    tc.outputLen = 16;
    // Zamba2 has both state-update and attention layers, so every
    // system exercises its full op coverage.
    for (SystemKind kind :
         {SystemKind::GPU, SystemKind::GPU_Q, SystemKind::GPU_PIM,
          SystemKind::PIMBA, SystemKind::NEUPIMS}) {
        auto rep = makeEngine(kind, zamba2_7b()).run(generateTrace(tc));
        EXPECT_EQ(rep.completed.size(), 8u) << systemName(kind);
        EXPECT_GT(rep.metrics.tokensPerSec, TokensPerSecond(0.0))
            << systemName(kind);
    }
}

} // namespace
} // namespace pimba
