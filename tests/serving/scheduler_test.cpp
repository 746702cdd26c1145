/**
 * @file
 * Scheduler-policy tests: admission ordering, Sarathi chunk packing
 * under the token budget, per-policy deterministic replay,
 * eviction/recompute token conservation, and the pinned saturation
 * claim — the Sarathi-style fused chunked-prefill policy beats FCFS
 * tail TTFT at equal-or-better goodput on the seeded Poisson trace.
 */

#include <gtest/gtest.h>

#include "config/runner.h"
#include "presets.h"
#include "serving/scheduler.h"

namespace pimba {
namespace {

Request
req(uint64_t id, uint64_t input, uint64_t output)
{
    Request r;
    r.id = id;
    r.inputLen = input;
    r.outputLen = output;
    return r;
}

RequestState
resident(uint64_t id, uint64_t input, uint64_t prefilled,
         uint64_t generated)
{
    RequestState rs;
    rs.req = req(id, input, 64);
    rs.prefilled = prefilled;
    rs.generated = generated;
    return rs;
}

TEST(SchedulerPolicy, NamesAndRegistry)
{
    EXPECT_EQ(allPolicies().size(), 3u);
    EXPECT_EQ(policyName(SchedulerPolicy::FCFS), "fcfs");
    EXPECT_EQ(policyName(SchedulerPolicy::SJF), "sjf");
    EXPECT_EQ(policyName(SchedulerPolicy::Sarathi), "sarathi");
}

TEST(SchedulerPolicy, FcfsAdmitsHeadSjfAdmitsShortest)
{
    std::deque<RequestState> waiting = {{.req = req(0, 500, 100)},
                                        {.req = req(1, 50, 10)},
                                        {.req = req(2, 200, 20)}};
    const Scheduler fcfs{SchedulerPolicy::FCFS, Tokens(512), Tokens(1024)};
    const Scheduler sjf{SchedulerPolicy::SJF, Tokens(512), Tokens(1024)};
    EXPECT_EQ(fcfs.pickAdmission(waiting), 0u);
    EXPECT_EQ(sjf.pickAdmission(waiting), 1u);
    // Ties fall to the earlier (front-most) request.
    waiting.push_back({.req = req(3, 50, 10)});
    EXPECT_EQ(sjf.pickAdmission(waiting), 1u);
}

TEST(SchedulerPolicy, OneChunkPoliciesRunOnePrefillUnfused)
{
    std::vector<RequestState> running = {
        resident(0, 128, 128, 5),  // decode
        resident(1, 1000, 0, 0),   // prefill, oldest admitted
        resident(2, 1000, 0, 0),   // prefill
    };
    for (auto policy : {SchedulerPolicy::FCFS, SchedulerPolicy::SJF}) {
        const Scheduler s{policy, Tokens(512), Tokens(1024)};
        IterationPlan plan;
        s.planInto(running, plan);
        EXPECT_FALSE(plan.fused);
        ASSERT_EQ(plan.decodeIdx.size(), 1u);
        EXPECT_EQ(plan.decodeIdx[0], 0u);
        ASSERT_EQ(plan.prefill.size(), 1u);
        EXPECT_EQ(plan.prefill[0].idx, 1u);
        EXPECT_EQ(plan.prefill[0].tokens, Tokens(512));
    }
}

TEST(SchedulerPolicy, SarathiPacksChunksUnderTokenBudget)
{
    std::vector<RequestState> running = {
        resident(0, 128, 128, 5),  // decode: 1 budget token
        resident(1, 128, 128, 9),  // decode: 1 budget token
        resident(2, 600, 0, 0),    // prefill, 600 left
        resident(3, 400, 0, 0),    // prefill, 400 left
        resident(4, 400, 0, 0),    // prefill, 400 left
    };
    const Scheduler s{SchedulerPolicy::Sarathi, Tokens(512), Tokens(1000)};
    IterationPlan plan;
    s.planInto(running, plan);
    EXPECT_TRUE(plan.fused);
    EXPECT_EQ(plan.decodeIdx.size(), 2u);
    // Budget 1000 - 2 decode = 998 prefill tokens: 512 (chunk cap) to
    // request 2, 400 to request 3, the remaining 86 to request 4.
    ASSERT_EQ(plan.prefill.size(), 3u);
    EXPECT_EQ(plan.prefill[0].idx, 2u);
    EXPECT_EQ(plan.prefill[0].tokens, Tokens(512));
    EXPECT_EQ(plan.prefill[1].idx, 3u);
    EXPECT_EQ(plan.prefill[1].tokens, Tokens(400));
    EXPECT_EQ(plan.prefill[2].idx, 4u);
    EXPECT_EQ(plan.prefill[2].tokens, Tokens(86));

    uint64_t spent = plan.decodeIdx.size();
    for (const auto &slice : plan.prefill)
        spent += slice.tokens.value();
    EXPECT_EQ(spent, 1000u);
}

TEST(SchedulerPolicy, SarathiNeverThrottlesDecodes)
{
    std::vector<RequestState> running = {
        resident(0, 64, 64, 1), resident(1, 64, 64, 1),
        resident(2, 64, 64, 1), resident(3, 512, 0, 0)};
    const Scheduler s{SchedulerPolicy::Sarathi, Tokens(512), Tokens(2)};
    IterationPlan plan;
    s.planInto(running, plan);
    // Budget 2 is already exceeded by the 3 decodes; they all still
    // run, and no prefill is granted this iteration.
    EXPECT_EQ(plan.decodeIdx.size(), 3u);
    EXPECT_TRUE(plan.prefill.empty());
}

TraceConfig
pressureTrace()
{
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 24.0;
    tc.numRequests = 32;
    tc.lengths = LengthDistribution::Uniform;
    tc.inputLen = 32;
    tc.inputLenMax = 256;
    tc.outputLen = 64;
    tc.outputLenMax = 512;
    tc.seed = 99;
    return tc;
}

/** Engine under real memory pressure so evictions actually happen. */
ServingReport
runUnderPressure(SchedulerPolicy policy)
{
    ModelConfig model = opt2p7b();
    ServingSimulator sim(makeSystem(SystemKind::GPU));
    EngineConfig ec;
    ec.policy = policy;
    ec.memoryBudget = sim.memoryUsage(model, 1, 0).weights +
                      2.0 * sim.requestFootprint(model, 256 + 512);
    return ServingEngine(sim, model, ec)
        .run(generateTrace(pressureTrace()));
}

TEST(SchedulerPolicy, EvictionConservesDeliveredTokens)
{
    auto trace = generateTrace(pressureTrace());
    uint64_t expected = 0;
    for (const auto &r : trace)
        expected += r.outputLen;

    for (SchedulerPolicy policy : allPolicies()) {
        ServingReport rep = runUnderPressure(policy);
        ASSERT_EQ(rep.completed.size(), trace.size())
            << policyName(policy);
        EXPECT_EQ(rep.generatedTokens, expected) << policyName(policy);
        EXPECT_GT(rep.preemptions, 0u) << policyName(policy);
        // Every eviction discards cached tokens that must be redone.
        EXPECT_GT(rep.recomputedTokens, 0u) << policyName(policy);
        EXPECT_LE(rep.peakMemory, rep.memoryBudget)
            << policyName(policy);
    }
}

TEST(SchedulerPolicy, EveryPolicyReplaysDeterministically)
{
    for (SchedulerPolicy policy : allPolicies()) {
        ServingReport a = runUnderPressure(policy);
        ServingReport b = runUnderPressure(policy);
        EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value()) << policyName(policy);
        EXPECT_EQ(a.iterations, b.iterations) << policyName(policy);
        EXPECT_EQ(a.preemptions, b.preemptions) << policyName(policy);
        ASSERT_EQ(a.completed.size(), b.completed.size());
        for (size_t i = 0; i < a.completed.size(); ++i) {
            EXPECT_EQ(a.completed[i].req.id, b.completed[i].req.id);
            EXPECT_DOUBLE_EQ(a.completed[i].ttft.value(),
                             b.completed[i].ttft.value());
            EXPECT_DOUBLE_EQ(a.completed[i].latency.value(),
                             b.completed[i].latency.value());
        }
    }
}

TEST(SchedulerPolicy, SjfFinishesShortJobsFirstUnderBurst)
{
    // A long job arrives first; under SJF the short burst jobs jump it.
    std::vector<Request> trace = {req(0, 2048, 256), req(1, 64, 8),
                                  req(2, 64, 8), req(3, 64, 8)};
    ModelConfig model = opt2p7b();
    ServingSimulator sim(makeSystem(SystemKind::GPU));
    EngineConfig ec;
    ec.maxBatch = 1; // serialize so admission order is completion order
    EngineConfig fcfsEc = ec;
    fcfsEc.policy = SchedulerPolicy::FCFS;
    EngineConfig sjfEc = ec;
    sjfEc.policy = SchedulerPolicy::SJF;

    auto fcfs = ServingEngine(sim, model, fcfsEc).run(trace);
    auto sjf = ServingEngine(sim, model, sjfEc).run(trace);
    ASSERT_EQ(fcfs.completed.size(), 4u);
    ASSERT_EQ(sjf.completed.size(), 4u);
    EXPECT_EQ(fcfs.completed[0].req.id, 0u); // arrival order
    EXPECT_EQ(sjf.completed[0].req.id, 1u);  // shortest first
    EXPECT_EQ(sjf.completed[3].req.id, 0u);  // long job drained last
    EXPECT_LT(sjf.metrics.latency.mean, fcfs.metrics.latency.mean);
}

/**
 * Pinned acceptance claim: on serving_rate_sweep.json's seeded Poisson
 * workload at a saturating arrival rate, the Sarathi-style policy
 * achieves strictly better p95 TTFT than FCFS at equal-or-better
 * goodput, on both an attention model and an SSM.
 */
TEST(SchedulerPolicy, SarathiBeatsFcfsTailTtftAtSaturation)
{
    struct Case
    {
        SystemKind kind;
        ModelConfig model;
    };
    const Case cases[] = {{SystemKind::GPU, opt2p7b()},
                          {SystemKind::PIMBA, mamba2_2p7b()}};
    for (const Case &c : cases) {
        ServingScenario sc =
            preset<ServingScenario>("serving_rate_sweep.json");
        sc.model = c.model;
        auto serve = [&](SchedulerPolicy policy) {
            return runServingPoint(sc, c.kind, policy,
                                   ExecutionMode::Blocked, 32.0)
                .metrics;
        };
        ServingMetrics fcfs = serve(SchedulerPolicy::FCFS);
        ServingMetrics sarathi = serve(SchedulerPolicy::Sarathi);
        EXPECT_LT(sarathi.ttft.p95, fcfs.ttft.p95)
            << systemName(c.kind) << " " << c.model.name;
        EXPECT_GE(sarathi.goodput, fcfs.goodput)
            << systemName(c.kind) << " " << c.model.name;
        EXPECT_GE(sarathi.tokensPerSec, fcfs.tokensPerSec)
            << systemName(c.kind) << " " << c.model.name;
    }
}

} // namespace
} // namespace pimba
