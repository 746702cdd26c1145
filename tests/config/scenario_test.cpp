/**
 * @file
 * Scenario schema tests: JSON -> typed scenario round-trips that run
 * through the registry and reproduce the exact metrics of the
 * equivalent hand-constructed engine/fleet runs, located schema errors
 * for unknown keys and bad values, the smoke-overlay semantics, and a
 * load of every checked-in preset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "config/runner.h"
#include "config/scenario.h"

using namespace pimba;

namespace {

constexpr const char *kServingJson = R"({
  "name": "roundtrip_serving",
  "kind": "serving",
  "systems": ["pimba"],
  "policies": ["sarathi"],
  "rate": 16,
  "model": "mamba2-2.7b",
  "engine": {"maxBatch": 32, "prefillChunk": 256},
  "trace": {
    "arrivals": "poisson",
    "numRequests": 24,
    "lengths": "uniform",
    "inputLen": 128, "inputLenMax": 512,
    "outputLen": 64, "outputLenMax": 192,
    "seed": 12345
  }
})";

TEST(ScenarioRoundTrip, ServingMatchesHandConstructedRun)
{
    Scenario sc = parseScenarioText(kServingJson);
    ASSERT_EQ(sc.kind, ScenarioKind::Serving);
    const auto &ss = std::get<ServingScenario>(sc.spec);
    ServingReport via_scenario = runServingPoint(
        ss, SystemKind::PIMBA, SchedulerPolicy::Sarathi,
        ExecutionMode::Blocked, 16.0);

    // The equivalent hand-constructed run, built without the registry.
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 16.0;
    tc.numRequests = 24;
    tc.lengths = LengthDistribution::Uniform;
    tc.inputLen = 128;
    tc.inputLenMax = 512;
    tc.outputLen = 64;
    tc.outputLenMax = 192;
    tc.seed = 12345;
    EngineConfig ec;
    ec.maxBatch = 32;
    ec.prefillChunk = Tokens(256);
    ec.policy = SchedulerPolicy::Sarathi;
    ec.executionMode = ExecutionMode::Blocked;
    ServingEngine engine(ServingSimulator(makeSystem(SystemKind::PIMBA)),
                         mamba2_2p7b(), ec);
    ServingReport by_hand = engine.run(generateTrace(tc));

    // Identical code path => bit-identical metrics, not just close.
    EXPECT_EQ(via_scenario.metrics.requests, by_hand.metrics.requests);
    EXPECT_EQ(via_scenario.metrics.generatedTokens,
              by_hand.metrics.generatedTokens);
    EXPECT_EQ(via_scenario.metrics.tokensPerSec,
              by_hand.metrics.tokensPerSec);
    EXPECT_EQ(via_scenario.metrics.ttft.p95, by_hand.metrics.ttft.p95);
    EXPECT_EQ(via_scenario.metrics.tpot.p95, by_hand.metrics.tpot.p95);
    EXPECT_EQ(via_scenario.iterations, by_hand.iterations);
    EXPECT_EQ(via_scenario.preemptions, by_hand.preemptions);
}

constexpr const char *kFleetJson = R"({
  "name": "roundtrip_fleet",
  "kind": "fleet",
  "model": "mamba2-2.7b",
  "fleet": {
    "label": "2p+1d",
    "router": "lot",
    "mode": "disaggregated",
    "prefillReplicas": 2,
    "link": "infiniband",
    "replicas": [{"system": "pimba", "count": 3}]
  },
  "trace": {
    "arrivals": "poisson", "rate": 12, "numRequests": 32,
    "inputLen": 256, "outputLen": 128, "seed": 777
  }
})";

TEST(ScenarioRoundTrip, FleetMatchesHandConstructedRun)
{
    Scenario sc = parseScenarioText(kFleetJson);
    ASSERT_EQ(sc.kind, ScenarioKind::Fleet);
    const auto &fs = std::get<FleetScenario>(sc.spec);
    ASSERT_EQ(fs.cases.size(), 1u);
    FleetReport via_scenario = runFleetCase(fs, fs.cases[0]);

    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 12.0;
    tc.numRequests = 32;
    tc.inputLen = 256;
    tc.outputLen = 128;
    tc.seed = 777;
    FleetConfig cfg = homogeneousFleet(SystemKind::PIMBA, 3);
    cfg.router = RouterPolicy::LeastOutstandingTokens;
    cfg.mode = FleetMode::Disaggregated;
    cfg.prefillReplicas = 2;
    cfg.link = infinibandLink();
    FleetReport by_hand =
        Fleet(mamba2_2p7b(), cfg).run(generateTrace(tc));

    EXPECT_EQ(via_scenario.metrics.requests, by_hand.metrics.requests);
    EXPECT_EQ(via_scenario.metrics.ttft.p95, by_hand.metrics.ttft.p95);
    EXPECT_EQ(via_scenario.metrics.tpot.p95, by_hand.metrics.tpot.p95);
    EXPECT_EQ(via_scenario.transfer.totalBytes,
              by_hand.transfer.totalBytes);
    EXPECT_EQ(via_scenario.assignments.size(),
              by_hand.assignments.size());
    for (size_t i = 0; i < via_scenario.assignments.size(); ++i)
        EXPECT_EQ(via_scenario.assignments[i], by_hand.assignments[i]);
}

/// Expect parseScenarioText to fail mentioning @p needle; returns the
/// error for further checks.
ConfigError
expectSchemaError(const std::string &text, const std::string &needle)
{
    try {
        parseScenarioText(text);
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message '" << e.what() << "' lacks '" << needle << "'";
        return e;
    }
    ADD_FAILURE() << "expected ConfigError mentioning " << needle;
    return ConfigError("none");
}

TEST(ScenarioSchema, UnknownKeysAreLocated)
{
    ConfigError e = expectSchemaError(
        "{\n"
        "  \"kind\": \"serving\",\n"
        "  \"systems\": [\"gpu\"],\n"
        "  \"rate\": 4,\n"
        "  \"model\": \"mamba2-2.7b\",\n"
        "  \"trace\": {\"numRequests\": 8, \"rats\": 3}\n"
        "}",
        "unknown key \"rats\"");
    EXPECT_EQ(e.line(), 6);
}

TEST(ScenarioSchema, UnknownEnumNamesListAlternatives)
{
    expectSchemaError(R"({"kind": "sorving"})", "unknown scenario kind");
    expectSchemaError(
        R"({"kind": "serving", "systems": ["tpu"], "rate": 1,
            "model": "mamba2-2.7b", "trace": {"numRequests": 4}})",
        "unknown system \"tpu\"");
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "rate": 1,
            "model": "nanogpt", "trace": {"numRequests": 4}})",
        "unknown model preset");
}

TEST(ScenarioSchema, LayerValidatorsRejectNonsense)
{
    // Negative memory budget -> engine validator, with JSON location.
    ConfigError e = expectSchemaError(
        "{\n"
        "  \"kind\": \"serving\",\n"
        "  \"systems\": [\"gpu\"],\n"
        "  \"rate\": 4,\n"
        "  \"model\": \"mamba2-2.7b\",\n"
        "  \"engine\": {\"memoryBudget\": -1},\n"
        "  \"trace\": {\"numRequests\": 8}\n"
        "}",
        "memoryBudget must be >= 0");
    EXPECT_EQ(e.line(), 6);

    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "rate": 4,
            "model": "mamba2-2.7b",
            "engine": {"blockTokens": 0},
            "trace": {"numRequests": 8}})",
        "blockTokens must be >= 1");

    expectSchemaError(
        R"({"kind": "fleet", "model": "mamba2-2.7b",
            "fleet": {"replicas": []},
            "trace": {"rate": 4, "numRequests": 8}})",
        "at least 1 replica");

    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "rate": 4,
            "model": "mamba2-2.7b",
            "trace": {"numRequests": 0}})",
        "numRequests must be >= 1");
}

TEST(ScenarioSchema, NegativeValuesForUnsignedFieldsAreLocatedErrors)
{
    // A negative length must fail at the parse, not wrap through the
    // unsigned field past the validators into a ~2^64-token prompt.
    ConfigError e = expectSchemaError(
        "{\n"
        "  \"kind\": \"serving\",\n"
        "  \"systems\": [\"gpu\"],\n"
        "  \"rate\": 4,\n"
        "  \"model\": \"mamba2-2.7b\",\n"
        "  \"trace\": {\"numRequests\": 8, \"inputLen\": -512}\n"
        "}",
        "\"inputLen\" must be >= 0");
    EXPECT_EQ(e.line(), 6);

    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "rate": 4,
            "model": "mamba2-2.7b",
            "engine": {"prefillChunk": -1},
            "trace": {"numRequests": 8}})",
        "\"prefillChunk\" must be >= 0");
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "nGpus": -2,
            "rate": 4, "model": "mamba2-2.7b",
            "trace": {"numRequests": 8}})",
        "\"nGpus\" must be >= 1");
}

TEST(ScenarioSchema, OutOfRangeIntegersAreLocatedErrors)
{
    // Beyond int64: must not be undefined behavior in the cast.
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "rate": 4,
            "model": "mamba2-2.7b",
            "trace": {"numRequests": 1e19}})",
        "out of range");
    // Fits int64 but not int: must not silently wrap to 1.
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "rate": 4,
            "model": "mamba2-2.7b",
            "trace": {"numRequests": 4294967297}})",
        "out of int range");
}

TEST(ScenarioSchema, SarathiBoundsCheckedAgainstScenarioPolicies)
{
    // The Sarathi memo bound must be enforced even when "sarathi" only
    // appears in the scenario-level policy list, not inside "engine" —
    // otherwise `pimba validate` passes and the run aborts mid-flight.
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"],
            "policies": ["fcfs", "sarathi"], "rate": 4,
            "model": "mamba2-2.7b",
            "engine": {"maxBatch": 8192},
            "trace": {"numRequests": 8}})",
        "Sarathi");
    expectSchemaError(
        R"({"kind": "saturation", "systems": ["gpu"],
            "policies": ["sarathi"],
            "model": "mamba2-2.7b",
            "engine": {"iterTokenBudget": 65536},
            "trace": {"numRequests": 8}})",
        "Sarathi");
}

TEST(ScenarioSchema, RateAndRatesAreMutuallyExclusive)
{
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"],
            "rates": [1, 2], "rate": 32,
            "model": "mamba2-2.7b", "trace": {"numRequests": 4}})",
        "mutually exclusive");
}

TEST(ScenarioSchema, OversizedSeedsAreLocatedErrors)
{
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "rate": 1,
            "model": "mamba2-2.7b",
            "trace": {"numRequests": 4, "seed": 4294967296}})",
        "must fit in 32 bits");
}

TEST(ScenarioSchema, MissingRequiredKeysFail)
{
    expectSchemaError(R"({"name": "x"})", "missing required key");
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"],
            "model": "mamba2-2.7b", "trace": {"numRequests": 4}})",
        "needs \"rates\" or \"rate\"");
    expectSchemaError(
        R"({"kind": "fleet", "model": "mamba2-2.7b",
            "trace": {"rate": 1, "numRequests": 4}})",
        "needs \"fleet\" or \"fleets\"");
}

TEST(ScenarioSchema, SmokeOverlayAppliesOnlyWhenAsked)
{
    const char *json = R"({
      "kind": "serving",
      "systems": ["gpu"],
      "rates": [4, 8],
      "model": "mamba2-2.7b",
      "trace": {"numRequests": 64, "seed": 9},
      "smoke": {"rates": [4], "trace": {"numRequests": 8}}
    })";
    Scenario full = parseScenarioText(json, /*smoke=*/false);
    Scenario smoke = parseScenarioText(json, /*smoke=*/true);
    const auto &fs = std::get<ServingScenario>(full.spec);
    const auto &ss = std::get<ServingScenario>(smoke.spec);
    EXPECT_EQ(fs.trace.numRequests, 64);
    EXPECT_EQ(fs.rates.size(), 2u);
    EXPECT_EQ(ss.trace.numRequests, 8);
    EXPECT_EQ(ss.rates.size(), 1u);
    // Untouched fields survive the overlay.
    EXPECT_EQ(ss.trace.seed, 9u);
}

TEST(ScenarioSchema, ArrivalProcessAndClassKeysParse)
{
    Scenario sc = parseScenarioText(R"({
      "kind": "fleet", "model": "mamba2-2.7b",
      "fleet": {"replicas": [{"system": "pimba", "count": 2}]},
      "trace": {
        "arrivals": "diurnal", "rate": 8, "numRequests": 32,
        "diurnal": {"periodSec": 120, "peakToTrough": 3},
        "classes": [
          {"name": "interactive", "weight": 3,
           "inputLen": 128, "outputLen": 64},
          {"name": "batch", "weight": 1, "lengths": "uniform",
           "inputLen": 512, "inputLenMax": 1024,
           "outputLen": 256, "outputLenMax": 512}
        ]
      }
    })");
    const auto &fs = std::get<FleetScenario>(sc.spec);
    EXPECT_EQ(fs.trace.arrivals, ArrivalProcess::Diurnal);
    EXPECT_DOUBLE_EQ(fs.trace.diurnal.period.value(), 120.0);
    EXPECT_DOUBLE_EQ(fs.trace.diurnal.peakToTrough, 3.0);
    ASSERT_EQ(fs.trace.classes.size(), 2u);
    EXPECT_EQ(fs.trace.classes[0].name, "interactive");
    EXPECT_DOUBLE_EQ(fs.trace.classes[0].weight, 3.0);
    EXPECT_EQ(fs.trace.classes[1].lengths, LengthDistribution::Uniform);
    EXPECT_EQ(fs.trace.classes[1].inputLenMax, 1024u);

    Scenario mm = parseScenarioText(R"({
      "kind": "fleet", "model": "mamba2-2.7b",
      "fleet": {"replicas": [{"system": "pimba", "count": 2}]},
      "trace": {
        "arrivals": "mmpp", "rate": 8, "numRequests": 32,
        "mmpp": {"burstMultiplier": 6, "burstMeanSec": 2,
                 "idleMeanSec": 10}
      }
    })");
    const auto &ms = std::get<FleetScenario>(mm.spec);
    EXPECT_EQ(ms.trace.arrivals, ArrivalProcess::Mmpp);
    EXPECT_DOUBLE_EQ(ms.trace.mmpp.burstMultiplier, 6.0);
    EXPECT_DOUBLE_EQ(ms.trace.mmpp.burstMean.value(), 2.0);
    EXPECT_DOUBLE_EQ(ms.trace.mmpp.idleMean.value(), 10.0);
}

TEST(ScenarioSchema, ReplayFileKeysAreFleetOnlyAndValidated)
{
    // The serving sweep re-generates its trace per swept rate, so a
    // fixed replay file there would silently ignore the sweep variable.
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "rate": 4,
            "model": "mamba2-2.7b",
            "trace": {"numRequests": 8, "file": "t.csv"}})",
        "fleet scenarios only");
    expectSchemaError(
        R"({"kind": "fleet", "model": "mamba2-2.7b",
            "fleet": {"replicas": [{"system": "pimba", "count": 1}]},
            "trace": {"file": ""}})",
        "must name a pimba-trace-v1 file");
    expectSchemaError(
        R"({"kind": "fleet", "model": "mamba2-2.7b",
            "fleet": {"replicas": [{"system": "pimba", "count": 1}]},
            "trace": {"arrivals": "daily", "numRequests": 4}})",
        "expected poisson, fixed, diurnal, mmpp");
    expectSchemaError(
        R"({"kind": "fleet", "model": "mamba2-2.7b",
            "fleet": {"replicas": [{"system": "pimba", "count": 1}]},
            "trace": {"arrivals": "diurnal", "numRequests": 4,
                      "diurnal": {"peakToTrough": 0.5}}})",
        "peakToTrough");

    // Omitted numRequests on a replay trace means "all of the file",
    // not the generator's default 64.
    Scenario sc = parseScenarioText(R"({
      "kind": "fleet", "model": "mamba2-2.7b",
      "fleet": {"replicas": [{"system": "pimba", "count": 1}]},
      "trace": {"file": "t.csv"}
    })");
    EXPECT_EQ(std::get<FleetScenario>(sc.spec).trace.numRequests, 0);
}

TEST(ScenarioSchema, ScaledModelKeepsFamilyName)
{
    Scenario sc = parseScenarioText(R"({
      "kind": "serving", "systems": ["gpu"], "rate": 1,
      "model": {"base": "zamba2-7b", "scaleTo": 70e9},
      "trace": {"numRequests": 4}
    })");
    const auto &ss = std::get<ServingScenario>(sc.spec);
    EXPECT_EQ(ss.model.name, zamba2_7b().name);
    EXPECT_GT(ss.model.paramCount(), 5e10);
}

TEST(ScenarioPresets, EveryPresetParsesAndValidates)
{
    // Walk scenarios/*.json in sorted order so a new preset is covered
    // without touching this test; each must load plain and with its
    // smoke overlay.
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(PIMBA_SCENARIO_DIR)))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    // Guard against a wrong directory or filter passing vacuously.
    ASSERT_GE(files.size(), 15u);
    for (const std::string &file : files) {
        EXPECT_NO_THROW({
            loadScenarioFile(file);
            loadScenarioFile(file, /*smoke=*/true);
        }) << file;
    }
}

} // namespace
