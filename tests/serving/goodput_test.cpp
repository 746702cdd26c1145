/**
 * @file
 * Regression tests for the paper-level serving claims at the request
 * level: at saturation on Mamba-2 2.7B, Pimba must sustain strictly
 * higher goodput and token throughput than the GPU baseline, and
 * capacity must plateau (not climb) once the system is saturated.
 */

#include <gtest/gtest.h>

#include "config/runner.h"
#include "presets.h"

namespace pimba {
namespace {

/// One FCFS point of serving_rate_sweep.json (Mamba-2 2.7B, 64
/// requests) on @p kind at Poisson @p rate.
ServingMetrics
serveAtRate(SystemKind kind, double rate)
{
    return runServingPoint(
               preset<ServingScenario>("serving_rate_sweep.json"), kind,
               SchedulerPolicy::FCFS, ExecutionMode::Blocked, rate)
        .metrics;
}

TEST(ServingGoodput, PimbaSustainsHigherGoodputThanGpuAtSaturation)
{
    // 32 req/s saturates both systems (GPU capacity is ~8 req/s of
    // 256-token outputs, Pimba's ~18).
    ServingMetrics gpu = serveAtRate(SystemKind::GPU, 32.0);
    ServingMetrics pimba = serveAtRate(SystemKind::PIMBA, 32.0);

    EXPECT_GT(pimba.goodput, gpu.goodput);
    EXPECT_GT(pimba.tokensPerSec, 1.5 * gpu.tokensPerSec);
    // Saturated GPU queueing shows up as tail TTFT blowup.
    EXPECT_GT(gpu.ttft.p95, pimba.ttft.p95);
}

TEST(ServingGoodput, ThroughputPlateausPastSaturation)
{
    ServingMetrics at32 = serveAtRate(SystemKind::GPU, 32.0);
    ServingMetrics at64 = serveAtRate(SystemKind::GPU, 64.0);
    // Past the knee, offered load doubles but capacity does not.
    EXPECT_LT(at64.tokensPerSec, 1.1 * at32.tokensPerSec);
}

TEST(ServingGoodput, GoodputTracksOfferedLoadBelowSaturation)
{
    // Well under capacity, nearly every request meets the SLO, so
    // goodput approaches the completion rate.
    ServingMetrics m = serveAtRate(SystemKind::PIMBA, 2.0);
    EXPECT_GT(m.goodput, 0.9 * m.requestsPerSec);
    EXPECT_EQ(m.sloViolations, 0u);
    EXPECT_TRUE(sustainsSlo(m));
}

TEST(ServingGoodput, PimDesignsBeatGpuBaselineAtSaturation)
{
    ServingMetrics gpu = serveAtRate(SystemKind::GPU, 32.0);
    for (SystemKind kind : {SystemKind::GPU_Q, SystemKind::GPU_PIM,
                            SystemKind::PIMBA}) {
        ServingMetrics m = serveAtRate(kind, 32.0);
        EXPECT_GT(m.tokensPerSec, gpu.tokensPerSec)
            << systemName(kind);
    }
}

} // namespace
} // namespace pimba
