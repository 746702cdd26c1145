/**
 * @file
 * Analytic GPU kernel latency/energy model (roofline with efficiency
 * factors and launch overhead) plus NVLink collective costs.
 */

#ifndef PIMBA_GPU_GPU_KERNELS_H
#define PIMBA_GPU_GPU_KERNELS_H

#include "core/units.h"
#include "gpu/gpu_config.h"

namespace pimba {

/** Latency and energy of one kernel invocation. */
struct GpuKernelCost
{
    Seconds seconds;
    Joules energyJ;
};

/** Roofline kernel model for one GPU. */
class GpuKernelModel
{
  public:
    explicit GpuKernelModel(const GpuConfig &cfg) : gpu(cfg) {}

    /**
     * Generic kernel: @p flops floating point operations touching
     * @p bytes of HBM traffic.
     */
    GpuKernelCost kernel(double flops, double bytes) const;

    /**
     * Ring all-reduce of @p bytes across @p n_gpus over NVLink:
     * 2 (n-1)/n passes of the payload per GPU.
     */
    GpuKernelCost allReduce(double bytes, int n_gpus) const;

    const GpuConfig &config() const { return gpu; }

    /** Arithmetic intensity at which the roofline ridges (flops/byte). */
    double ridgeIntensity() const;

  private:
    GpuConfig gpu;
};

} // namespace pimba

#endif // PIMBA_GPU_GPU_KERNELS_H
