/**
 * @file
 * Layer-validator tests: validateEngineConfig / validateFleetConfig /
 * validateTraceConfig reject nonsensical values with actionable
 * messages (and accept every default and canonical config).
 */

#include <gtest/gtest.h>

#include <limits>

#include "presets.h"
#include "serving/trace.h"

using namespace pimba;

namespace {

TEST(ValidateEngine, DefaultsAndCanonicalConfigsPass)
{
    EXPECT_EQ(validateEngineConfig(EngineConfig{}), "");
    EngineConfig sarathi;
    sarathi.policy = SchedulerPolicy::Sarathi;
    sarathi.iterTokenBudget = Tokens(768);
    EXPECT_EQ(validateEngineConfig(sarathi), "");
}

TEST(ValidateEngine, RejectsNonsenseWithActionableMessages)
{
    EngineConfig ec;
    ec.maxBatch = 0;
    EXPECT_NE(validateEngineConfig(ec).find("maxBatch"),
              std::string::npos);

    ec = EngineConfig{};
    ec.memoryBudget = Bytes(-5e9);
    EXPECT_NE(validateEngineConfig(ec).find("memoryBudget"),
              std::string::npos);

    ec = EngineConfig{};
    ec.blockTokens = Tokens(0);
    EXPECT_NE(validateEngineConfig(ec).find("blockTokens"),
              std::string::npos);

    ec = EngineConfig{};
    ec.prefillChunk = Tokens(0);
    EXPECT_NE(validateEngineConfig(ec).find("prefillChunk"),
              std::string::npos);

    ec = EngineConfig{};
    ec.slo.ttft = Seconds(0.0);
    EXPECT_NE(validateEngineConfig(ec).find("SLO"), std::string::npos);
}

TEST(ValidateEngine, StepTokenBoundEnforcedForEveryPolicy)
{
    // A step's tokens are one generationStep's int batch, whatever the
    // policy: prefillChunk and the resolved iteration budget must fit.
    const uint64_t top = std::numeric_limits<int>::max();
    for (SchedulerPolicy policy : allPolicies()) {
        EngineConfig ec;
        ec.policy = policy;
        ec.prefillChunk = Tokens(top);
        ec.maxBatch = 1;
        ec.iterTokenBudget = Tokens(top);
        EXPECT_EQ(validateEngineConfig(ec), "") << policyName(policy);

        ec.prefillChunk = Tokens(top + 1);
        EXPECT_NE(validateEngineConfig(ec).find("prefillChunk"),
                  std::string::npos)
            << policyName(policy);

        ec = EngineConfig{};
        ec.policy = policy;
        ec.iterTokenBudget = Tokens(top + 1);
        EXPECT_NE(validateEngineConfig(ec).find("2147483647"),
                  std::string::npos)
            << policyName(policy);

        // An unset budget resolves to maxBatch + prefillChunk.
        ec = EngineConfig{};
        ec.policy = policy;
        ec.maxBatch = std::numeric_limits<int>::max();
        EXPECT_NE(validateEngineConfig(ec), "") << policyName(policy);
    }
}

TEST(ValidateEngine, LargeSarathiEngineValidatesAndRuns)
{
    // The step memo keys 32 bits of tokens, so a Sarathi engine needs
    // no batch or budget bound of its own.
    EngineConfig ec;
    ec.policy = SchedulerPolicy::Sarathi;
    ec.maxBatch = 4096;
    ec.iterTokenBudget = Tokens(1ull << 16);
    ASSERT_EQ(validateEngineConfig(ec), "");

    TraceConfig tc;
    tc.ratePerSec = 1000.0;
    tc.numRequests = 64;
    tc.inputLen = 1024;
    tc.outputLen = 8;
    ServingEngine engine(ServingSimulator(makeSystem(SystemKind::GPU)),
                         mamba2_2p7b(), ec);
    ServingReport r = engine.run(generateTrace(tc));
    EXPECT_EQ(r.completed.size(), 64u);
}

TEST(ValidateFleet, CanonicalFleetsPass)
{
    EXPECT_EQ(validateFleetConfig(homogeneousFleet(SystemKind::GPU, 2)),
              "");
    for (const char *file :
         {"cluster_routers.json", "cluster_disaggregation.json",
          "cluster_execution_modes.json"})
        for (const FleetCase &c : preset<FleetScenario>(file).cases)
            EXPECT_EQ(validateFleetConfig(c.fleet), "")
                << file << ": " << c.label;
}

TEST(ValidateFleet, RejectsNonsense)
{
    FleetConfig empty;
    EXPECT_NE(validateFleetConfig(empty).find("at least 1 replica"),
              std::string::npos);

    FleetConfig bad_gpus = homogeneousFleet(SystemKind::GPU, 2);
    bad_gpus.replicas[1].nGpus = 0;
    std::string msg = validateFleetConfig(bad_gpus);
    EXPECT_NE(msg.find("replica 1"), std::string::npos);
    EXPECT_NE(msg.find("nGpus"), std::string::npos);

    // A bad per-replica engine config surfaces with its index.
    FleetConfig bad_engine = homogeneousFleet(SystemKind::PIMBA, 2);
    bad_engine.replicas[0].engine.blockTokens = Tokens(0);
    EXPECT_NE(validateFleetConfig(bad_engine).find("replica 0"),
              std::string::npos);

    // Disaggregation needs both pools non-empty.
    FleetConfig disagg = homogeneousFleet(SystemKind::PIMBA, 2);
    disagg.mode = FleetMode::Disaggregated;
    disagg.prefillReplicas = 0;
    EXPECT_NE(validateFleetConfig(disagg).find(">= 1 prefill"),
              std::string::npos);
    disagg.prefillReplicas = 2; // no decode replica left
    EXPECT_NE(validateFleetConfig(disagg).find(">= 1 prefill"),
              std::string::npos);

    FleetConfig dead_link =
        presetCase(preset<FleetScenario>("cluster_disaggregation.json"),
                   "2p+2d NVLink (A100)");
    dead_link.link.bandwidth = BytesPerSecond(0.0);
    EXPECT_NE(validateFleetConfig(dead_link).find("bandwidth"),
              std::string::npos);
}

TEST(ValidateTrace, DefaultsPassAndNonsenseRejected)
{
    EXPECT_EQ(validateTraceConfig(TraceConfig{}), "");

    TraceConfig tc;
    tc.ratePerSec = 0.0;
    EXPECT_NE(validateTraceConfig(tc).find("ratePerSec"),
              std::string::npos);

    tc = TraceConfig{};
    tc.numRequests = 0;
    EXPECT_NE(validateTraceConfig(tc).find("numRequests"),
              std::string::npos);

    tc = TraceConfig{};
    tc.inputLen = 0;
    EXPECT_NE(validateTraceConfig(tc).find("inputLen"),
              std::string::npos);

    tc = TraceConfig{};
    tc.lengths = LengthDistribution::Uniform;
    tc.inputLen = 512;
    tc.inputLenMax = 256;
    EXPECT_NE(validateTraceConfig(tc).find("inverted"),
              std::string::npos);

    // Inverted bounds are fine under the Fixed distribution (ignored).
    tc.lengths = LengthDistribution::Fixed;
    EXPECT_EQ(validateTraceConfig(tc), "");
}

} // namespace
