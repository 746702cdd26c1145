/**
 * @file
 * Sweep tests: grid-spec parsing and the pinned determinism guarantee
 * — the same scenario + seed produces a byte-identical report at any
 * thread count.
 */

#include <gtest/gtest.h>

#include "config/sweep.h"

using namespace pimba;

namespace {

TEST(GridSpec, LinearRange)
{
    GridAxis axis = parseGridSpec("rate=1..5");
    EXPECT_EQ(axis.param, "rate");
    EXPECT_EQ(axis.values, (std::vector<double>{1, 2, 3, 4, 5}));
}

TEST(GridSpec, SteppedRange)
{
    GridAxis axis = parseGridSpec("rate=4..16:4");
    EXPECT_EQ(axis.values, (std::vector<double>{4, 8, 12, 16}));
}

TEST(GridSpec, GeometricRange)
{
    GridAxis axis = parseGridSpec("rate=1..32:x2");
    EXPECT_EQ(axis.values, (std::vector<double>{1, 2, 4, 8, 16, 32}));
}

TEST(GridSpec, ExplicitList)
{
    GridAxis axis = parseGridSpec("maxBatch=8,32,128");
    EXPECT_EQ(axis.param, "maxBatch");
    EXPECT_EQ(axis.values, (std::vector<double>{8, 32, 128}));
}

TEST(GridSpec, FractionalValues)
{
    GridAxis axis = parseGridSpec("rate=0.5..2:0.5");
    EXPECT_EQ(axis.values, (std::vector<double>{0.5, 1.0, 1.5, 2.0}));
}

TEST(GridSpec, MalformedSpecsFail)
{
    EXPECT_THROW(parseGridSpec("rate"), ConfigError);
    EXPECT_THROW(parseGridSpec("=1..4"), ConfigError);
    EXPECT_THROW(parseGridSpec("rate="), ConfigError);
    EXPECT_THROW(parseGridSpec("rate=8..1"), ConfigError);
    EXPECT_THROW(parseGridSpec("rate=1..8:0"), ConfigError);
    EXPECT_THROW(parseGridSpec("rate=1..8:x1"), ConfigError);
    EXPECT_THROW(parseGridSpec("rate=a,b"), ConfigError);
    // A geometric range from a non-positive bound would never advance
    // (0 * 2 == 0) — must be rejected, not loop forever.
    EXPECT_THROW(parseGridSpec("rate=0..32:x2"), ConfigError);
    EXPECT_THROW(parseGridSpec("rate=-4..32:x2"), ConfigError);
}

Scenario
smallServingScenario()
{
    return parseScenarioText(R"({
      "name": "sweep_determinism",
      "kind": "serving",
      "systems": ["pimba"],
      "rate": 8,
      "model": "mamba2-2.7b",
      "engine": {"maxBatch": 16},
      "trace": {
        "arrivals": "poisson", "numRequests": 16,
        "inputLen": 128, "outputLen": 64, "seed": 4242
      }
    })");
}

TEST(Sweep, OneThreadAndManyThreadsAreByteIdentical)
{
    Scenario sc = smallServingScenario();
    GridAxis axis = parseGridSpec("rate=2..16:x2");
    ScenarioReport serial = runSweep(sc, axis, 1);
    ScenarioReport parallel4 = runSweep(sc, axis, 4);
    ScenarioReport parallel_all = runSweep(sc, axis, 0);
    EXPECT_EQ(serial.renderCsv(), parallel4.renderCsv());
    EXPECT_EQ(serial.renderText(), parallel4.renderText());
    EXPECT_EQ(serial.renderCsv(), parallel_all.renderCsv());
}

TEST(Sweep, RepeatedRunsAreByteIdentical)
{
    Scenario sc = smallServingScenario();
    GridAxis axis = parseGridSpec("rate=4,8");
    EXPECT_EQ(runSweep(sc, axis, 2).renderCsv(),
              runSweep(sc, axis, 2).renderCsv());
}

TEST(Sweep, GridPointsAppearInOrder)
{
    Scenario sc = smallServingScenario();
    ScenarioReport rep = runSweep(sc, parseGridSpec("rate=4,8,2"), 3);
    std::string text = rep.renderText();
    size_t p4 = text.find("rate = 4");
    size_t p8 = text.find("rate = 8");
    size_t p2 = text.find("rate = 2");
    ASSERT_NE(p4, std::string::npos);
    ASSERT_NE(p8, std::string::npos);
    ASSERT_NE(p2, std::string::npos);
    EXPECT_LT(p4, p8);
    EXPECT_LT(p8, p2);
}

TEST(Sweep, SeedAxisSpansFullUint32Range)
{
    // Seeds accepted in JSON must also be sweepable: the full uint32
    // range including 0 and values past INT_MAX.
    Scenario sc = smallServingScenario();
    EXPECT_NO_THROW(applyGridParam(sc, "seed", 0));
    EXPECT_NO_THROW(applyGridParam(sc, "seed", 3000000000.0));
    EXPECT_NO_THROW(applyGridParam(sc, "seed", 4294967295.0));
    EXPECT_THROW(applyGridParam(sc, "seed", 4294967296.0),
                 ConfigError);
    EXPECT_THROW(applyGridParam(sc, "seed", -1), ConfigError);
    const auto &ss = std::get<ServingScenario>(sc.spec);
    EXPECT_EQ(ss.trace.seed, 4294967295u);
}

TEST(Sweep, UnknownParamRejected)
{
    Scenario sc = smallServingScenario();
    EXPECT_THROW(runSweep(sc, parseGridSpec("turbo=1..2"), 1),
                 ConfigError);
    // 'replicas' only applies to fleet scenarios.
    EXPECT_THROW(runSweep(sc, parseGridSpec("replicas=1..2"), 1),
                 ConfigError);
}

TEST(Planner, NonPowerOfTwoMaxReplicasCeilingIsProbed)
{
    // At 64 req/s the GPU fleet needs 3 replicas. With maxReplicas 3
    // the gallop probes 1, 2 (both fail) and must then probe the
    // clamped ceiling 3 itself — not overshoot to 4 and report "> 3".
    const char *json = R"({
      "kind": "planner",
      "systems": ["gpu"],
      "model": "mamba2-2.7b",
      "maxReplicas": %d,
      "trace": {"rate": 64, "numRequests": 48,
                "inputLen": 512, "outputLen": 256, "seed": 1592652270}
    })";
    char with_cap3[512], with_cap8[512];
    snprintf(with_cap3, sizeof with_cap3, json, 3);
    snprintf(with_cap8, sizeof with_cap8, json, 8);
    std::string capped =
        runScenario(parseScenarioText(with_cap3)).renderText();
    std::string roomy =
        runScenario(parseScenarioText(with_cap8)).renderText();
    EXPECT_EQ(capped, roomy); // both must find the same 3-replica fleet
    EXPECT_EQ(capped.find("> 3"), std::string::npos) << capped;
}

TEST(Sweep, MaxBatchAxisRevalidatedAgainstScenarioPolicies)
{
    // An invalid sweep point must raise a located ConfigError at apply
    // time, not a fatal abort on a worker thread. Sarathi bounds the
    // batch no more than the other policies do.
    Scenario sc = parseScenarioText(R"({
      "kind": "serving",
      "systems": ["gpu"],
      "policies": ["sarathi"],
      "rate": 8,
      "model": "mamba2-2.7b",
      "trace": {"numRequests": 8, "inputLen": 64, "outputLen": 16}
    })");
    EXPECT_NO_THROW(applyGridParam(sc, "maxBatch", 2048));
    EXPECT_NO_THROW(applyGridParam(sc, "maxBatch", 5000));
    // maxBatch + the default 512-token chunk overflows the iteration
    // budget's int bound.
    try {
        applyGridParam(sc, "maxBatch", 2147483647);
        ADD_FAILURE() << "expected a ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("invalid"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Sweep, ReplicasAxisResizesFleetCases)
{
    Scenario sc = parseScenarioText(R"({
      "kind": "fleet",
      "model": "mamba2-2.7b",
      "fleet": {"replicas": [{"system": "pimba"}]},
      "trace": {"rate": 8, "numRequests": 12,
                "inputLen": 128, "outputLen": 32, "seed": 7}
    })");
    Scenario two = sc;
    applyGridParam(two, "replicas", 3);
    const auto &fs = std::get<FleetScenario>(two.spec);
    EXPECT_EQ(fs.cases[0].fleet.replicas.size(), 3u);
}

TEST(Sweep, ReplicasAxisRejectsImpossibleDisaggregatedResize)
{
    // Shrinking a 2-prefill disaggregated fleet to 2 replicas leaves
    // no decode pool: a located ConfigError, not a mid-run abort.
    Scenario sc = parseScenarioText(R"({
      "kind": "fleet",
      "model": "mamba2-2.7b",
      "fleet": {"mode": "disaggregated", "prefillReplicas": 2,
                "replicas": [{"system": "pimba", "count": 4}]},
      "trace": {"rate": 8, "numRequests": 12,
                "inputLen": 128, "outputLen": 32, "seed": 7}
    })");
    EXPECT_THROW(applyGridParam(sc, "replicas", 2), ConfigError);
    EXPECT_NO_THROW(applyGridParam(sc, "replicas", 3));
}

} // namespace
