#include "gpu/gpu_kernels.h"

#include <algorithm>

namespace pimba {

GpuKernelCost
GpuKernelModel::kernel(double flops, double bytes) const
{
    GpuKernelCost cost;
    double compute_time = flops / (gpu.peakFp16Flops *
                                   gpu.flopsEfficiency);
    double memory_time = bytes / (gpu.memBandwidth * gpu.bwEfficiency);
    cost.seconds = Seconds(std::max(compute_time, memory_time) +
                           gpu.kernelLaunchOverhead);
    cost.energyJ = Joules(flops * gpu.computeEnergyPerFlop +
                          bytes * 8.0 * gpu.dramEnergyPerBit);
    return cost;
}

GpuKernelCost
GpuKernelModel::allReduce(double bytes, int n_gpus) const
{
    GpuKernelCost cost;
    if (n_gpus <= 1)
        return cost;
    double factor = 2.0 * (n_gpus - 1) / static_cast<double>(n_gpus);
    double moved = bytes * factor;
    cost.seconds = Seconds(moved / gpu.nvlinkBandwidth +
                           gpu.kernelLaunchOverhead);
    cost.energyJ = Joules(moved * 8.0 * gpu.nvlinkEnergyPerBit);
    return cost;
}

double
GpuKernelModel::ridgeIntensity() const
{
    return (gpu.peakFp16Flops * gpu.flopsEfficiency) /
           (gpu.memBandwidth * gpu.bwEfficiency);
}

} // namespace pimba
