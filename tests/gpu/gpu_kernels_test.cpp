/**
 * @file
 * Tests of the GPU roofline kernel model and NVLink collectives.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_kernels.h"

namespace pimba {
namespace {

/// Roofline cost of an fp16 GEMM of (m x k) by (k x n): weights
/// streamed from HBM once, activations read and written.
GpuKernelCost
gemm(const GpuKernelModel &gpu, double m, double n, double k)
{
    return gpu.kernel(2.0 * m * n * k, n * k * 2.0 + (m * k + m * n) * 2.0);
}

TEST(GpuKernels, MemoryBoundKernel)
{
    GpuKernelModel gpu(a100Config());
    double bytes = 1e9;
    auto cost = gpu.kernel(0.0, bytes);
    double expect = bytes / (2.039e12 * 0.8) + 5e-6;
    EXPECT_NEAR(cost.seconds.value(), expect, 1e-9);
}

TEST(GpuKernels, ComputeBoundKernel)
{
    GpuKernelModel gpu(a100Config());
    // Huge flops, negligible bytes.
    auto cost = gpu.kernel(1e15, 1.0);
    double expect = 1e15 / (312e12 * 0.75) + 5e-6;
    EXPECT_NEAR(cost.seconds.value(), expect, 1e-6);
}

TEST(GpuKernels, RooflineTakesMax)
{
    GpuKernelModel gpu(a100Config());
    double flops = 1e12, bytes = 1e9;
    auto cost = gpu.kernel(flops, bytes);
    double ct = flops / (312e12 * 0.75);
    double mt = bytes / (2.039e12 * 0.8);
    EXPECT_NEAR(cost.seconds.value(), std::max(ct, mt) + 5e-6, 1e-9);
}

TEST(GpuKernels, GemmSmallBatchIsMemoryBound)
{
    // Decode GEMMs at small batch stream weights: memory bound
    // (the premise of Figs. 1(b) and 3).
    GpuKernelModel gpu(a100Config());
    double m = 32, n = 2560, k = 2560;
    auto cost = gemm(gpu, m, n, k);
    double weight_time = n * k * 2.0 / (2.039e12 * 0.8);
    EXPECT_NEAR(cost.seconds.value(), weight_time + 5e-6,
                weight_time * 0.1);
}

TEST(GpuKernels, GemmLargeBatchIsComputeBound)
{
    GpuKernelModel gpu(a100Config());
    double m = 8192, n = 8192, k = 8192;
    auto cost = gemm(gpu, m, n, k);
    double flops_time = 2.0 * m * n * k / (312e12 * 0.75);
    EXPECT_NEAR(cost.seconds.value(), flops_time + 5e-6,
                flops_time * 0.2);
}

TEST(GpuKernels, AllReduceSingleGpuIsFree)
{
    GpuKernelModel gpu(a100Config());
    auto cost = gpu.allReduce(1e9, 1);
    EXPECT_EQ(cost.seconds, Seconds(0.0));
    EXPECT_EQ(cost.energyJ, Joules(0.0));
}

TEST(GpuKernels, AllReduceRingFactor)
{
    GpuKernelModel gpu(a100Config());
    double bytes = 1e9;
    auto cost8 = gpu.allReduce(bytes, 8);
    double expect = bytes * 2.0 * 7.0 / 8.0 / 600e9 + 5e-6;
    EXPECT_NEAR(cost8.seconds.value(), expect, 1e-9);
    // More GPUs -> more data moved per GPU.
    auto cost2 = gpu.allReduce(bytes, 2);
    EXPECT_LT(cost2.seconds, cost8.seconds);
}

TEST(GpuKernels, H100FasterThanA100)
{
    GpuKernelModel a100(a100Config());
    GpuKernelModel h100(h100Config());
    EXPECT_LT(h100.kernel(0.0, 1e9).seconds, a100.kernel(0.0, 1e9).seconds);
    EXPECT_LT(h100.kernel(1e14, 1).seconds, a100.kernel(1e14, 1).seconds);
}

TEST(GpuKernels, RidgeIntensity)
{
    GpuKernelModel gpu(a100Config());
    // A100: ~143 flops/byte with efficiency factors applied.
    EXPECT_NEAR(gpu.ridgeIntensity(), 312e12 * 0.75 / (2.039e12 * 0.8),
                1e-6);
    EXPECT_GT(gpu.ridgeIntensity(), 100.0);
}

TEST(GpuKernels, EnergyScalesWithWork)
{
    GpuKernelModel gpu(a100Config());
    auto a = gpu.kernel(1e12, 1e9);
    auto b = gpu.kernel(2e12, 2e9);
    EXPECT_NEAR(b.energyJ / a.energyJ, 2.0, 1e-9);
}

} // namespace
} // namespace pimba
