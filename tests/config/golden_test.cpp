/**
 * @file
 * Golden-output pinning: the checked-in fixtures under tests/golden/
 * are the *pre-optimization* stdout of `pimba run` on the scenario
 * presets, captured before the step-memo flattening, the PIM
 * kernel-shape cache, and the layer-replicated op builder landed. The
 * hot-path work is only allowed to make the simulator faster, never to
 * move a digit — so every report here must match its fixture byte for
 * byte, at full size and under the smoke overlay.
 *
 * Regenerate a fixture (only when an intentional modeling change lands,
 * with the diff reviewed):
 *
 *     ./build/pimba run scenarios/<file>.json [--smoke] \
 *         > tests/golden/<name>.txt 2>/dev/null
 *
 * The fleet-layer fixtures (disaggregation, priority tiers, autoscaler,
 * streamed replay, and the test-only control_deadlines.json timer
 * workload next to the fixtures) were captured before the fleet's
 * event drivers were merged into one calendar pump; they pin that
 * every event kind (arrival, hand-off, warm-up, deadline, scale tick)
 * dispatches exactly as before.
 *
 * fig16_full.txt and execution_modes_smoke.txt were captured from the
 * presets just before the C++ built-in studies they mirror were
 * deleted, while both definitions still printed the same tables.
 *
 * saturation_search_full.txt and fleet_planner_full.txt were captured
 * while every engine still kept private step-cost memos, before the
 * saturation and planner searches shared one step-cost store per
 * system kind across their probes.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "config/runner.h"

using namespace pimba;

namespace {

std::string
readFixture(const std::string &name)
{
    std::string path = std::string(PIMBA_GOLDEN_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
runFile(const std::string &path, bool smoke)
{
    Scenario sc = loadScenarioFile(path, smoke);
    return runScenario(sc, /*quiet=*/true).renderText();
}

std::string
runPreset(const std::string &file, bool smoke)
{
    return runFile(std::string(PIMBA_SCENARIO_DIR) + "/" + file, smoke);
}

TEST(GoldenOutput, Fig12SmokeMatchesPreOptimizationCapture)
{
    EXPECT_EQ(runPreset("fig12_throughput.json", true),
              readFixture("fig12_smoke.txt"));
}

TEST(GoldenOutput, Fig12FullMatchesPreOptimizationCapture)
{
    // The full paper-scale grid — the workload the hot-path work was
    // measured on, and the byte-identity claim of the speedup number.
    EXPECT_EQ(runPreset("fig12_throughput.json", false),
              readFixture("fig12_full.txt"));
}

TEST(GoldenOutput, ServingRateSweepSmokeMatchesPreOptimizationCapture)
{
    // Exercises the engine's decode/prefill/fused step memos end to
    // end (systems x policies x rates).
    EXPECT_EQ(runPreset("serving_rate_sweep.json", true),
              readFixture("serving_smoke.txt"));
}

TEST(GoldenOutput, ClusterRoutersSmokeMatchesPreOptimizationCapture)
{
    // Exercises the fleet's advance gating: skipped no-op broadcasts
    // must not change a single digit of the router comparison.
    EXPECT_EQ(runPreset("cluster_routers.json", true),
              readFixture("routers_smoke.txt"));
}

TEST(GoldenOutput, Fig16SmokeMatchesPreOptimizationCapture)
{
    EXPECT_EQ(runPreset("fig16_h100.json", true),
              readFixture("fig16_smoke.txt"));
}

TEST(GoldenOutput, Fig16FullMatchesCapture)
{
    EXPECT_EQ(runPreset("fig16_h100.json", false),
              readFixture("fig16_full.txt"));
}

TEST(GoldenOutput, ExecutionModesSmokeMatchesCapture)
{
    // Per-replica execution modes, including a mixed blocked/overlapped
    // fleet behind one router.
    EXPECT_EQ(runPreset("cluster_execution_modes.json", true),
              readFixture("execution_modes_smoke.txt"));
}

TEST(GoldenOutput, DisaggregationFullMatchesCapture)
{
    // The only preset with prefill -> link -> decode hand-offs.
    EXPECT_EQ(runPreset("cluster_disaggregation.json", false),
              readFixture("disaggregation_full.txt"));
}

TEST(GoldenOutput, PriorityTiersSmokeMatchesCapture)
{
    EXPECT_EQ(runPreset("priority_tiers.json", true),
              readFixture("priority_tiers_smoke.txt"));
}

TEST(GoldenOutput, AutoscaleDiurnalSmokeMatchesCapture)
{
    // Streamed control-plane runs: scale ticks and warm-up timers.
    EXPECT_EQ(runPreset("autoscale_diurnal.json", true),
              readFixture("autoscale_diurnal_smoke.txt"));
}

TEST(GoldenOutput, FleetReplaySmokeMatchesCapture)
{
    // Streamed colocated replay (bounded-memory shape).
    EXPECT_EQ(runPreset("fleet_replay.json", true),
              readFixture("fleet_replay_smoke.txt"));
}

TEST(GoldenOutput, SaturationSearchFullMatchesCapture)
{
    // Every gallop and bisection probe of every (system, policy) pair.
    EXPECT_EQ(runPreset("saturation_search.json", false),
              readFixture("saturation_search_full.txt"));
}

TEST(GoldenOutput, FleetPlannerFullMatchesCapture)
{
    // Every replica-count probe fleet of every system.
    EXPECT_EQ(runPreset("fleet_planner.json", false),
              readFixture("fleet_planner_full.txt"));
}

TEST(GoldenOutput, ControlDeadlinesMatchesCapture)
{
    // No preset cancels anything; this fixture fires warm-ups, drains,
    // TTFT and total-deadline cancels on one calendar.
    EXPECT_EQ(runFile(std::string(PIMBA_GOLDEN_DIR) +
                          "/control_deadlines.json",
                      false),
              readFixture("control_deadlines.txt"));
}

} // namespace
