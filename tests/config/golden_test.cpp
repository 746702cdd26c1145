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
 * lot_evictions.txt is the output of the test-only lot_evictions.json
 * next to it, captured while the fleet still cached each replica's load
 * row and the engine walked its queues for every signal.
 *
 * p2c_disagg.txt is the output of the test-only p2c_disagg.json next
 * to it, captured while each router policy was its own class behind a
 * virtual interface.
 *
 * fig16_full.txt and execution_modes_smoke.txt were captured from the
 * presets just before the C++ built-in studies they mirror were
 * deleted, while both definitions still printed the same tables.
 *
 * fig03_full.txt, fig13_full.txt and fig14_full.txt were captured from
 * the step presets while the bench programs they replace still ran:
 * every Fig. 13 and Fig. 14 line from the title through the last table
 * row equalled the program's stdout byte for byte, and every Fig. 3
 * fraction was the program's percentage over 100.
 *
 * saturation_search_full.txt and fleet_planner_full.txt were captured
 * while every engine still kept private step-cost memos, before the
 * saturation and planner searches shared one step-cost store per
 * system kind across their probes.
 *
 * disaggregation_stream_smoke.txt is `pimba run
 * scenarios/cluster_disaggregation.json --smoke --stream-metrics`,
 * captured while streamed disaggregated cases still ran the
 * record-retaining fleet and folded its records into sketches
 * afterwards.
 *
 * trace_bytes.txt pins the trace and timeline files of two traced
 * smoke runs by length and FNV-1a-64 digest (the files are megabytes):
 * a serving study with a CSV timeline, and a disaggregated fleet with
 * interconnect ships and a JSON timeline. Regenerate a line by running
 * the preset with --smoke --trace/--timeline and hashing the file.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
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
    // Exercises the engine's decode, prefill and fused steps end to
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

TEST(GoldenOutput, Fig03FullMatchesCapture)
{
    // Latency report over one system: model and batch lead each row.
    EXPECT_EQ(runPreset("fig03_breakdown.json", false),
              readFixture("fig03_full.txt"));
}

TEST(GoldenOutput, Fig13FullMatchesCapture)
{
    // One latency grid per model; category summaries at one batch.
    EXPECT_EQ(runPreset("fig13_breakdown.json", false),
              readFixture("fig13_full.txt"));
}

TEST(GoldenOutput, Fig14FullMatchesCapture)
{
    // Energy report at one batch: model and system lead each row.
    EXPECT_EQ(runPreset("fig14_energy.json", false),
              readFixture("fig14_full.txt"));
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

TEST(GoldenOutput, DisaggregationStreamSmokeMatchesCapture)
{
    // Streamed metrics over hand-offs: transfer-adjusted TTFTs folded
    // into sketches, and the transfer breakdown of a streamed run.
    Scenario sc = loadScenarioFile(
        std::string(PIMBA_SCENARIO_DIR) + "/cluster_disaggregation.json",
        true);
    sc.obs.streamMetrics = true;
    EXPECT_EQ(runScenario(sc, /*quiet=*/true).renderText(),
              readFixture("disaggregation_stream_smoke.txt"));
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

TEST(GoldenOutput, LotEvictionsMatchesCapture)
{
    // LOT and JSQ read every load signal the engines keep as running
    // sums; this fixture moves each of them (evictions, queued and
    // resident cancels, tiers, prefix hits, prefilled imports), so a
    // wrong update changes a routing decision and the report.
    EXPECT_EQ(runFile(std::string(PIMBA_GOLDEN_DIR) + "/lot_evictions.json",
                      false),
              readFixture("lot_evictions.txt"));
}

TEST(GoldenOutput, P2cDisaggMatchesCapture)
{
    // Both disaggregated stages route by seeded P2C; the decode router
    // samples from its own seed, so seeding it like the prefill router
    // moves the 2p+4d case's decode picks and the report.
    EXPECT_EQ(runFile(std::string(PIMBA_GOLDEN_DIR) + "/p2c_disagg.json",
                      false),
              readFixture("p2c_disagg.txt"));
}

/// FNV-1a-64 of @p bytes, as "%016x".
std::string
fnv1a64Hex(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/// "<bytes> <fnv1a64>" of each file named in trace_bytes.txt.
std::map<std::string, std::string>
traceDigestFixture()
{
    std::map<std::string, std::string> pinned;
    std::istringstream in(readFixture("trace_bytes.txt"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string file, bytes, digest;
        fields >> file >> bytes >> digest;
        pinned[file] = bytes + " " + digest;
    }
    return pinned;
}

/// Run @p preset (smoke) with a trace and a timeline of extension
/// @p timelineExt, and check both files against trace_bytes.txt.
void
expectTracedRunMatches(const std::string &preset,
                       const std::string &timelineExt)
{
    const std::string stem = preset.substr(0, preset.size() - 5);
    const std::string traceName = stem + ".trace.json";
    const std::string timelineName = stem + ".timeline." + timelineExt;
    Scenario sc = loadScenarioFile(
        std::string(PIMBA_SCENARIO_DIR) + "/" + preset, true);
    sc.obs.tracePath = testing::TempDir() + "golden_" + traceName;
    sc.obs.timelinePath = testing::TempDir() + "golden_" + timelineName;
    sc.obs.timelineFormat = timelineExt == "json" ? TimelineFormat::Json
                                                  : TimelineFormat::Csv;
    runScenario(sc, /*quiet=*/true);

    std::map<std::string, std::string> pinned = traceDigestFixture();
    const std::pair<std::string, std::string> files[] = {
        {traceName, sc.obs.tracePath},
        {timelineName, sc.obs.timelinePath}};
    for (const auto &[name, path] : files) {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good()) << "traced run wrote no " << path;
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string bytes = buf.str();
        EXPECT_EQ(std::to_string(bytes.size()) + " " + fnv1a64Hex(bytes),
                  pinned[name])
            << name;
        std::remove(path.c_str());
    }
}

TEST(GoldenTrace, ServingTraceAndCsvTimelineMatchCapture)
{
    // Lifecycle lanes and gpu/pim/sync phase slices of a hybrid model.
    expectTracedRunMatches("fig15_neupims.json", "csv");
}

TEST(GoldenTrace, FleetTraceAndJsonTimelineMatchCapture)
{
    // Replica processes plus interconnect ship slices on pid 0.
    expectTracedRunMatches("cluster_disaggregation.json", "json");
}

} // namespace
