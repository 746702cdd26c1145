/**
 * @file
 * Event-calendar vs. lockstep equivalence: the discrete-event fleet
 * driver (Fleet::run) must reproduce the retired lockstep reference
 * (Fleet::runLockstep) bit for bit — same assignments, same completion
 * records, same metrics, same per-replica reports — on every fleet
 * preset shipped under scenarios/, colocated and disaggregated, across
 * every router the preset sweeps. This is the proof obligation that
 * lets the lockstep driver stay a debug-only reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "config/scenario.h"
#include "serving/trace_io.h"

namespace pimba {
namespace {

/** Field-exact comparison of two fleet reports. @p what names the
 *  preset/case/router combination in failure output. */
void
expectIdenticalReports(const FleetReport &a, const FleetReport &b,
                       const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.router, b.router);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value());

    ASSERT_EQ(a.completed.size(), b.completed.size());
    for (size_t i = 0; i < a.completed.size(); ++i) {
        const CompletedRequest &x = a.completed[i];
        const CompletedRequest &y = b.completed[i];
        EXPECT_EQ(x.req.id, y.req.id) << "record " << i;
        EXPECT_EQ(x.req.classId, y.req.classId) << "record " << i;
        EXPECT_DOUBLE_EQ(x.ttft.value(), y.ttft.value()) << "record " << i;
        EXPECT_DOUBLE_EQ(x.tpot.value(), y.tpot.value()) << "record " << i;
        EXPECT_DOUBLE_EQ(x.latency.value(), y.latency.value())
            << "record " << i;
        EXPECT_DOUBLE_EQ(x.queueing.value(), y.queueing.value())
            << "record " << i;
        EXPECT_EQ(x.preemptions, y.preemptions) << "record " << i;
    }

    EXPECT_EQ(a.metrics.requests, b.metrics.requests);
    EXPECT_EQ(a.metrics.generatedTokens, b.metrics.generatedTokens);
    EXPECT_EQ(a.metrics.sloViolations, b.metrics.sloViolations);
    EXPECT_DOUBLE_EQ(a.metrics.goodput.value(), b.metrics.goodput.value());
    EXPECT_DOUBLE_EQ(a.metrics.ttft.p50, b.metrics.ttft.p50);
    EXPECT_DOUBLE_EQ(a.metrics.ttft.p95, b.metrics.ttft.p95);
    EXPECT_DOUBLE_EQ(a.metrics.tpot.p95, b.metrics.tpot.p95);
    EXPECT_DOUBLE_EQ(a.metrics.latency.p99, b.metrics.latency.p99);
    EXPECT_DOUBLE_EQ(a.metrics.queueing.p95, b.metrics.queueing.p95);

    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (size_t i = 0; i < a.replicas.size(); ++i) {
        EXPECT_EQ(a.replicas[i].iterations, b.replicas[i].iterations)
            << "replica " << i;
        EXPECT_EQ(a.replicas[i].completedRequests,
                  b.replicas[i].completedRequests)
            << "replica " << i;
        EXPECT_EQ(a.replicas[i].generatedTokens,
                  b.replicas[i].generatedTokens)
            << "replica " << i;
        EXPECT_DOUBLE_EQ(a.replicas[i].makespan.value(),
                         b.replicas[i].makespan.value())
            << "replica " << i;
    }

    EXPECT_EQ(a.load.requestsPerReplica, b.load.requestsPerReplica);
    EXPECT_DOUBLE_EQ(a.load.requestImbalance, b.load.requestImbalance);
    EXPECT_DOUBLE_EQ(a.load.tokenImbalance, b.load.tokenImbalance);

    EXPECT_EQ(a.transfer.transfers, b.transfer.transfers);
    EXPECT_DOUBLE_EQ(a.transfer.totalBytes.value(),
                     b.transfer.totalBytes.value());
}

/** Run one fleet case under both drivers and compare. */
void
checkCase(const FleetScenario &sc, const FleetCase &c,
          std::optional<RouterPolicy> router,
          const std::vector<Request> &trace, const std::string &what)
{
    FleetConfig cfg = c.fleet;
    if (router)
        cfg.router = *router;
    FleetReport event = Fleet(sc.model, cfg).run(trace);
    FleetReport lockstep = Fleet(sc.model, cfg).runLockstep(trace);
    expectIdenticalReports(event, lockstep, what);
}

TEST(EventEquivalence, EveryFleetPresetIsByteIdenticalToLockstep)
{
    // Sweep every scenarios/*.json under the smoke overlay (full-size
    // presets are CI-hostile); non-fleet kinds are skipped, and so are
    // control-plane cases, which the lockstep reference predates.
    // Guard that the sweep saw real work so a filtering bug can't pass
    // vacuously.
    size_t fleetPresets = 0, casesChecked = 0;
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(PIMBA_SCENARIO_DIR)))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());

    for (const std::string &file : files) {
        Scenario scenario = loadScenarioFile(file, /*smoke=*/true);
        if (scenario.kind != ScenarioKind::Fleet)
            continue;
        ++fleetPresets;
        const auto &sc = std::get<FleetScenario>(scenario.spec);
        auto trace = materializeTrace(sc.trace);
        for (const FleetCase &c : sc.cases) {
            if (c.fleet.controlPlane.anyEnabled())
                continue;
            std::vector<std::optional<RouterPolicy>> routers;
            if (sc.routers.empty()) {
                routers.push_back(std::nullopt);
            } else {
                for (RouterPolicy r : sc.routers)
                    routers.emplace_back(r);
            }
            for (const auto &router : routers) {
                std::string what =
                    scenario.name + " / " + c.label +
                    (router ? " / " + routerName(*router) : "");
                checkCase(sc, c, router, trace, what);
                ++casesChecked;
            }
        }
    }
    // scenarios/ ships at least the router shootout and the
    // disaggregation study; both must have been exercised.
    EXPECT_GE(fleetPresets, 2u);
    EXPECT_GE(casesChecked, 4u);
}

TEST(EventEquivalence, StreamedSourceMatchesMaterializedRun)
{
    // run(ArrivalSource&) must agree with run(vector): the lazy pull
    // path and the sorted-copy path drive the same calendar.
    Scenario scenario = loadScenarioFile(
        std::string(PIMBA_SCENARIO_DIR) + "/cluster_routers.json",
        /*smoke=*/true);
    const auto &sc = std::get<FleetScenario>(scenario.spec);
    auto trace = materializeTrace(sc.trace);
    const FleetCase &c = sc.cases.front();

    FleetReport fromVector = Fleet(sc.model, c.fleet).run(trace);
    ArrivalStream stream(sc.trace);
    FleetReport fromStream = Fleet(sc.model, c.fleet).run(stream);
    expectIdenticalReports(fromVector, fromStream, "stream vs vector");
}

} // namespace
} // namespace pimba
