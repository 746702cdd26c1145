/**
 * @file
 * Execution-mode invariants through the serving engine and the cluster
 * fleet: EngineConfig::executionMode overrides the replica simulator's
 * mode, overlapped runs conserve tokens and finish no later than
 * blocked runs of the same trace, and a mixed-mode fleet (blocked and
 * overlapped replicas behind one router) replays deterministically and
 * conserves tokens end to end.
 */

#include <gtest/gtest.h>

#include "config/runner.h"
#include "presets.h"

namespace pimba {
namespace {

/// cluster_execution_modes.json: 4x Pimba blocked, overlapped, and
/// mixed 2+2 behind JSQ, Mamba-2 2.7B.
const FleetScenario &
modesPreset()
{
    static const FleetScenario sc =
        preset<FleetScenario>("cluster_execution_modes.json");
    return sc;
}

uint64_t
outputTokens(const std::vector<Request> &trace)
{
    uint64_t total = 0;
    for (const Request &r : trace)
        total += r.outputLen;
    return total;
}

ServingReport
runMode(ExecutionMode mode, SchedulerPolicy policy = SchedulerPolicy::FCFS)
{
    ServingScenario sc = preset<ServingScenario>("serving_rate_sweep.json");
    sc.model = zamba2_7b();
    sc.trace.numRequests = 48;
    return runServingPoint(sc, SystemKind::PIMBA, policy, mode, 16.0);
}

TEST(EngineExecutionMode, ReportCarriesTheMode)
{
    EXPECT_EQ(runMode(ExecutionMode::Blocked).executionMode,
              ExecutionMode::Blocked);
    EXPECT_EQ(runMode(ExecutionMode::Overlapped).executionMode,
              ExecutionMode::Overlapped);
}

TEST(EngineExecutionMode, OverlappedConservesTokensAndFinishesSooner)
{
    for (SchedulerPolicy policy : allPolicies()) {
        ServingReport blk = runMode(ExecutionMode::Blocked, policy);
        ServingReport ovl = runMode(ExecutionMode::Overlapped, policy);
        // Same trace, same token production — only the iteration
        // costing changes, so token conservation must hold in both and
        // the overlapped clock can never run ahead of the blocked one.
        EXPECT_EQ(blk.generatedTokens, ovl.generatedTokens)
            << policyName(policy);
        EXPECT_EQ(blk.completed.size(), ovl.completed.size())
            << policyName(policy);
        EXPECT_LE(ovl.makespan, blk.makespan) << policyName(policy);
        EXPECT_LT(ovl.metrics.tpot.p50, blk.metrics.tpot.p50)
            << policyName(policy);
    }
}

TEST(EngineExecutionMode, ConfigOverridesSystemMode)
{
    // The EngineConfig override beats the SystemConfig default in both
    // directions; nullopt inherits the system's mode.
    SystemConfig sys = makeSystem(SystemKind::PIMBA);
    sys.executionMode = ExecutionMode::Overlapped;
    ServingSimulator sim(sys);

    EngineConfig inherit;
    ServingEngine e1(sim, mamba2_2p7b(), inherit);
    e1.begin();
    EXPECT_EQ(e1.simulator().system().executionMode,
              ExecutionMode::Overlapped);

    EngineConfig force;
    force.executionMode = ExecutionMode::Blocked;
    ServingEngine e2(sim, mamba2_2p7b(), force);
    e2.begin();
    EXPECT_EQ(e2.simulator().system().executionMode,
              ExecutionMode::Blocked);
}

TEST(FleetExecutionMode, MixedModeFleetConservesTokens)
{
    auto trace = presetTrace(modesPreset(), 24.0, 64);
    Fleet fleet(mamba2_2p7b(), presetCase(modesPreset(), "mixed 2+2"));
    FleetReport rep = fleet.run(trace);

    ASSERT_EQ(rep.completed.size(), trace.size());
    uint64_t generated = 0;
    for (const ServingReport &r : rep.replicas)
        generated += r.generatedTokens;
    EXPECT_EQ(generated, outputTokens(trace));
    EXPECT_EQ(rep.metrics.generatedTokens, outputTokens(trace));

    // The per-replica reports carry their own modes: first half
    // blocked, second half overlapped.
    ASSERT_EQ(rep.replicas.size(), 4u);
    EXPECT_EQ(rep.replicas[0].executionMode, ExecutionMode::Blocked);
    EXPECT_EQ(rep.replicas[1].executionMode, ExecutionMode::Blocked);
    EXPECT_EQ(rep.replicas[2].executionMode, ExecutionMode::Overlapped);
    EXPECT_EQ(rep.replicas[3].executionMode, ExecutionMode::Overlapped);
}

TEST(FleetExecutionMode, MixedModeFleetReplaysDeterministically)
{
    auto trace = presetTrace(modesPreset(), 24.0, 64);
    Fleet fleet(mamba2_2p7b(), presetCase(modesPreset(), "mixed 2+2"));
    FleetReport a = fleet.run(trace);
    FleetReport b = fleet.run(trace);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value());
    EXPECT_DOUBLE_EQ(a.metrics.ttft.p95, b.metrics.ttft.p95);
}

TEST(FleetExecutionMode, OverlappedFleetNoSlowerThanBlocked)
{
    auto trace = presetTrace(modesPreset(), 24.0, 64);
    FleetReport blk =
        Fleet(mamba2_2p7b(), presetCase(modesPreset(), "blocked x4"))
            .run(trace);
    FleetReport ovl =
        Fleet(mamba2_2p7b(), presetCase(modesPreset(), "overlapped x4"))
            .run(trace);
    EXPECT_EQ(blk.metrics.generatedTokens, ovl.metrics.generatedTokens);
    EXPECT_LE(ovl.metrics.tpot.p95, blk.metrics.tpot.p95);
}

} // namespace
} // namespace pimba
