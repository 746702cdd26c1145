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
#include <cctype>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "config/runner.h"
#include "config/scenario.h"
#include "serving/step_memo.h"

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
    ASSERT_EQ(sc.kind(), ScenarioKind::Serving);
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
    ASSERT_EQ(sc.kind(), ScenarioKind::Fleet);
    const auto &fs = std::get<FleetScenario>(sc.spec);
    ASSERT_EQ(fs.cases.size(), 1u);
    StepCostStores stores(fs.model);
    FleetReport via_scenario = runFleetCase(stores, fs, fs.cases[0]);

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

/// A one-grid step scenario over GPU and Pimba with @p extra members
/// spliced in on line 2 (so errors they cause are located there).
std::string
stepJson(const std::string &extra)
{
    return "{\"kind\": \"step\", \"systems\": [\"gpu\", \"pimba\"],\n" +
           extra +
           "\n\"grids\": [{\"models\": [\"retnet-2.7b\"], "
           "\"batches\": [32, 64]}]}";
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
    // Every key that names an enum value fails with the whole list of
    // its names, located at the offending value.
    expectSchemaError(R"({"name": "x"})",
                      "missing required key \"kind\" (step, serving, "
                      "fleet, saturation, planner)");
    expectSchemaError(R"({"kind": "sorving"})",
                      "unknown scenario kind \"sorving\" (expected step, "
                      "serving, fleet, saturation, planner)");
    expectSchemaError(
        R"({"kind": "serving", "systems": ["tpu"], "rate": 1,
            "model": "mamba2-2.7b", "trace": {"numRequests": 4}})",
        "unknown system \"tpu\" (expected gpu, gpu+q, gpu+pim, pimba, "
        "neupims)");
    expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"], "rate": 1,
            "model": "nanogpt", "trace": {"numRequests": 4}})",
        "unknown model preset");

    // A serving scenario with @p extra members spliced in on line 2.
    auto serving = [](const std::string &extra) {
        return "{\"kind\": \"serving\", \"systems\": [\"gpu\"], "
               "\"rate\": 1, \"model\": \"mamba2-2.7b\",\n" +
               extra + "}";
    };
    ConfigError e = expectSchemaError(
        serving(R"("policies": ["fcfs", "Lifo"],
                   "trace": {"numRequests": 4})"),
        "unknown scheduler policy \"Lifo\" (expected fcfs, sjf, sarathi)");
    EXPECT_EQ(e.line(), 2);
    expectSchemaError(
        serving(R"("modes": ["pipelined"], "trace": {"numRequests": 4})"),
        "unknown execution mode \"pipelined\" (expected blocked, "
        "overlapped)");
    expectSchemaError(
        serving(R"("engine": {"executionMode": "async"},
                   "trace": {"numRequests": 4})"),
        "unknown execution mode \"async\" (expected blocked, overlapped)");
    expectSchemaError(
        serving(R"("trace": {"numRequests": 4, "arrivals": "gamma"})"),
        "unknown arrival process \"gamma\" (expected poisson, fixed, "
        "diurnal, mmpp)");
    expectSchemaError(
        serving(R"("trace": {"numRequests": 4, "lengths": "zipf"})"),
        "unknown length distribution \"zipf\" (expected fixed, uniform)");
    e = expectSchemaError(
        serving(R"("trace": {"numRequests": 4},
                   "observability": {"timelineFormat": "xml"})"),
        "unknown timeline format \"xml\" (expected csv, json)");
    EXPECT_EQ(e.line(), 3);

    // A fleet scenario with @p routers at the top and @p fleet as its
    // one fleet's extra members.
    auto fleet = [](const std::string &routers, const std::string &extra) {
        return "{\"kind\": \"fleet\", \"model\": \"mamba2-2.7b\",\n" +
               routers +
               "\"fleet\": {\"replicas\": [{\"system\": \"pimba\"}]" +
               extra + "},\n\"trace\": {\"numRequests\": 4}}";
    };
    e = expectSchemaError(fleet(R"("routers": ["jsq", "random"],)", ""),
                          "unknown router \"random\" (expected rr, jsq, "
                          "lot, p2c, cache-affinity)");
    EXPECT_EQ(e.line(), 2);
    expectSchemaError(fleet("", R"(, "router": "least-loaded")"),
                      "unknown router \"least-loaded\" (expected rr, jsq, "
                      "lot, p2c, cache-affinity)");
    expectSchemaError(fleet("", R"(, "mode": "split")"),
                      "unknown fleet mode \"split\" (expected colocated, "
                      "disaggregated)");

    expectSchemaError(stepJson(R"("position": 1, "report": "power",)"),
                      "unknown report \"power\" (expected throughput, "
                      "latency, energy)");
}

/// Every value up to @p last has exactly one row in @p table, and its
/// printed name looks it up again in lower and in upper case.
template <class T, size_t N>
void
expectNamesRoundTrip(const Named<T> (&table)[N], T last)
{
    EXPECT_EQ(N, static_cast<size_t>(last) + 1) << nameList(table);
    for (size_t i = 0; i <= static_cast<size_t>(last); ++i) {
        const T value = static_cast<T>(i);
        ASSERT_EQ(std::ranges::count(table, value, &Named<T>::value), 1)
            << "value " << i << " of " << nameList(table);
        std::string lower(nameOf(table, value)), upper = lower;
        std::ranges::transform(lower, lower.begin(), [](char c) {
            return static_cast<char>(std::tolower(c));
        });
        std::ranges::transform(upper, upper.begin(), [](char c) {
            return static_cast<char>(std::toupper(c));
        });
        EXPECT_EQ(lookupName(table, lower), value) << lower;
        EXPECT_EQ(lookupName(table, upper), value) << upper;
    }
}

TEST(ScenarioSchema, EnumNamesRoundTripInAnyCase)
{
    expectNamesRoundTrip(kSystemNames, SystemKind::NEUPIMS);
    expectNamesRoundTrip(kExecutionModeNames, ExecutionMode::Overlapped);
    expectNamesRoundTrip(kSchedulerPolicyNames, SchedulerPolicy::Sarathi);
    expectNamesRoundTrip(kRouterNames, RouterPolicy::CacheAffinity);
    expectNamesRoundTrip(kFleetModeNames, FleetMode::Disaggregated);
    expectNamesRoundTrip(kArrivalProcessNames, ArrivalProcess::Mmpp);
    expectNamesRoundTrip(kLengthDistributionNames,
                         LengthDistribution::Uniform);
    expectNamesRoundTrip(kTimelineFormatNames, TimelineFormat::Json);
    expectNamesRoundTrip(kStepReportNames, StepReport::Energy);
    expectNamesRoundTrip(kScenarioKindNames, ScenarioKind::Planner);
    EXPECT_EQ(lookupName(kRouterNames, "cache-affinit"), std::nullopt);
    EXPECT_EQ(lookupName(kRouterNames, "cache-affinityy"), std::nullopt);

    // The parser reads the same tables: upper-case names load, and each
    // value has one spelling (the old aliases are unknown names).
    Scenario sc = parseScenarioText(R"({
      "kind": "FLEET", "model": "mamba2-2.7b", "routers": ["P2C"],
      "fleet": {"mode": "Disaggregated", "prefillReplicas": 1,
                "replicas": [{"system": "GPU+PIM", "count": 2}]},
      "trace": {"arrivals": "MMPP", "lengths": "Uniform",
                "inputLen": 64, "inputLenMax": 128, "numRequests": 4},
      "observability": {"timelineFormat": "JSON"}
    })");
    ASSERT_EQ(sc.kind(), ScenarioKind::Fleet);
    const auto &fs = std::get<FleetScenario>(sc.spec);
    EXPECT_EQ(fs.routers, std::vector{RouterPolicy::PowerOfTwoChoices});
    EXPECT_EQ(fs.cases[0].fleet.mode, FleetMode::Disaggregated);
    EXPECT_EQ(fs.cases[0].fleet.replicas[0].kind, SystemKind::GPU_PIM);
    EXPECT_EQ(fs.trace.arrivals, ArrivalProcess::Mmpp);
    EXPECT_EQ(fs.trace.lengths, LengthDistribution::Uniform);
    EXPECT_EQ(sc.obs.timelineFormat, TimelineFormat::Json);
    auto planner = [](const std::string &system, const std::string &router) {
        return R"({"kind": "planner", "model": "mamba2-2.7b", "systems": [")" +
               system + R"("], "router": ")" + router +
               R"(", "trace": {"numRequests": 4}})";
    };
    EXPECT_NO_THROW(parseScenarioText(planner("Gpu+Q", "Cache-Affinity")));
    for (std::string alias : {"gpu_q", "gpu_pim"})
        expectSchemaError(planner(alias, "rr"),
                          "unknown system \"" + alias + "\"");
    for (std::string alias : {"round-robin", "cache"})
        expectSchemaError(planner("gpu", alias),
                          "unknown router \"" + alias + "\"");
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

TEST(ScenarioSchema, StepTokenBoundIsALocatedError)
{
    // The one engine bound left is policy-free: a step's tokens must
    // fit an int batch. It fails at the engine block, before any run.
    ConfigError e = expectSchemaError(
        R"({"kind": "serving", "systems": ["gpu"],
            "policies": ["fcfs", "sarathi"], "rate": 4,
            "model": "mamba2-2.7b",
            "engine": {"prefillChunk": 2147483648},
            "trace": {"numRequests": 8}})",
        "prefillChunk");
    EXPECT_EQ(e.line(), 4);
    // Sarathi alone no longer bounds the batch or the budget.
    EXPECT_NO_THROW(parseScenarioText(
        R"({"kind": "serving", "systems": ["gpu"],
            "policies": ["fcfs", "sarathi"], "rate": 4,
            "model": "mamba2-2.7b",
            "engine": {"maxBatch": 8192},
            "trace": {"numRequests": 8}})"));
    EXPECT_NO_THROW(parseScenarioText(
        R"({"kind": "saturation", "systems": ["gpu"],
            "policies": ["sarathi"],
            "model": "mamba2-2.7b",
            "engine": {"iterTokenBudget": 65536},
            "trace": {"numRequests": 8}})"));
}

TEST(ScenarioSchema, RequestLengthBoundIsALocatedError)
{
    // Past kMaxRequestTokens a cache position would overflow the step
    // memo key mid-run; the loader rejects it at the trace block.
    const std::string bound = "must be <= " +
                              std::to_string(kMaxRequestTokens) + " tokens";
    auto serving = [](const std::string &trace) {
        return "{\"kind\": \"serving\", \"systems\": [\"gpu\"], "
               "\"rate\": 4, \"model\": \"mamba2-2.7b\",\n"
               "\"trace\": " +
               trace + "}";
    };
    ConfigError e = expectSchemaError(
        serving(R"({"numRequests": 8, "inputLen": 5000000000})"),
        "trace: inputLen " + bound + ", got 5000000000");
    EXPECT_EQ(e.line(), 2);
    expectSchemaError(
        serving(R"({"numRequests": 8, "inputLen": 64,
                    "inputLenMax": 5000000000})"),
        "trace: inputLenMax " + bound);
    expectSchemaError(
        serving(R"({"numRequests": 8, "outputLen": 64,
                    "outputLenMax": 5000000000})"),
        "trace: outputLenMax " + bound);
    e = expectSchemaError(
        serving(R"({"numRequests": 8, "classes": [
                      {"name": "chat", "inputLen": 64, "outputLen": 64},
                      {"name": "long", "inputLen": 64,
                       "outputLen": 5000000000}]})"),
        "trace: class 1 (long): outputLen " + bound);
    EXPECT_EQ(e.line(), 2);
    // The bound itself is a valid length.
    EXPECT_NO_THROW(parseScenarioText(serving(
        R"({"numRequests": 8, "inputLen": )" +
        std::to_string(kMaxRequestTokens) + "}")));
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

TEST(ScenarioSchema, StepPositionIsRequiredAndBounded)
{
    // A missing, negative, fractional or memo-overflowing position
    // fails at load, located, instead of aborting the run.
    ConfigError e = expectSchemaError(stepJson(""), "needs a \"position\"");
    EXPECT_EQ(e.line(), 1);
    const std::string bound = "\"position\" must be in [0, " +
                              std::to_string(kMemoMaxPosition) + "], got ";
    e = expectSchemaError(stepJson(R"("position": -1,)"), bound + "-1");
    EXPECT_EQ(e.line(), 2);
    e = expectSchemaError(stepJson(R"("position": 3071.5,)"),
                          "expected an integer");
    EXPECT_EQ(e.line(), 2);
    expectSchemaError(
        stepJson(R"("position": )" +
                 std::to_string(kMemoMaxPosition + 1) + ","),
        bound + std::to_string(kMemoMaxPosition + 1));
    expectSchemaError(stepJson(R"("position": "3071",)"), "expected number");
    // The bound itself is a valid position.
    Scenario sc = parseScenarioText(stepJson(
        R"("position": )" + std::to_string(kMemoMaxPosition) + ","));
    EXPECT_EQ(std::get<StepScenario>(sc.spec).position, kMemoMaxPosition);
    // The decode window and the old kind name are gone, not aliased.
    expectSchemaError(
        stepJson(R"("position": 3071, "inputLen": 2048,)"),
        "unknown key \"inputLen\"");
    expectSchemaError(
        R"({"kind": "throughput", "systems": ["gpu"], "position": 1,
            "grids": [{"models": ["retnet-2.7b"], "batches": [1]}]})",
        "unknown scenario kind \"throughput\"");
}

TEST(ScenarioSchema, StepReportAndSummaryFieldsAreValidated)
{
    ConfigError e = expectSchemaError(
        stepJson(R"("position": 1, "report": "power",)"),
        "unknown report \"power\"");
    EXPECT_EQ(e.line(), 2);
    // A category names a column of the report: none for throughput,
    // the energy split is not a latency column, and typos list them.
    expectSchemaError(
        stepJson(R"("position": 1, "summaries": [{"category": "GEMM"}],)"),
        "a throughput report has no \"category\"");
    expectSchemaError(
        stepJson(R"j("position": 1, "report": "latency",
                    "summaries": [{"category": "State update (I/O)"}],)j"),
        "expected one of: StateUpdate, Attention");
    e = expectSchemaError(
        stepJson(R"("position": 1, "report": "energy",
                    "summaries": [{"category": "SU I/O"}],)"),
        "unknown category \"SU I/O\"");
    EXPECT_EQ(e.line(), 3);
    e = expectSchemaError(
        stepJson(R"("position": 1, "report": "energy",
                    "summaries": [{"batch": 128}],)"),
        "no grid holds batch 128");
    EXPECT_EQ(e.line(), 3);
    // A summary compares two of the scenario's systems: a system the
    // grid never ran, named or by default, has no cells to compare.
    e = expectSchemaError(
        stepJson(R"("position": 1,
                    "summaries": [{"system": "neupims", "versus": "gpu"}],)"),
        "summary \"system\" neupims is not one of this scenario's systems "
        "(gpu, pimba)");
    EXPECT_EQ(e.line(), 3);
    expectSchemaError(
        stepJson(R"("position": 1,
                    "summaries": [{"versus": "gpu+q"}],)"),
        "summary \"versus\" gpu+q is not one of this scenario's systems");
    e = expectSchemaError(
        R"({"kind": "step", "systems": ["gpu", "neupims"], "position": 1,
            "grids": [{"models": ["retnet-2.7b"], "batches": [1]}],
            "summaries": [{"versus": "gpu"}]})",
        "summary \"system\" pimba (the default) is not one of this "
        "scenario's systems (gpu, neupims)");
    EXPECT_EQ(e.line(), 3);

    Scenario sc = parseScenarioText(
        stepJson(R"j("position": 1, "report": "energy",
                    "summaries": [{"category": "attention (i/o)",
                                   "batch": 64}, {}],)j"));
    const auto &ss = std::get<StepScenario>(sc.spec);
    EXPECT_EQ(ss.report, StepReport::Energy);
    ASSERT_EQ(ss.summaries.size(), 2u);
    EXPECT_EQ(ss.summaries[0].category, BreakdownKey::AttentionIo);
    EXPECT_EQ(ss.summaries[0].batch, 64);
    EXPECT_FALSE(ss.summaries[1].category.has_value());
    EXPECT_FALSE(ss.summaries[1].batch.has_value());
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
