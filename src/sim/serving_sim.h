/**
 * @file
 * Generation-phase serving simulator: maps each operation of a model's
 * per-token operator graph onto the GPU roofline model or the PIM cycle
 * model according to the system configuration, accumulating the latency
 * and energy breakdowns the paper's Figures 3 and 12-16 report.
 *
 * Two execution modes (SystemConfig::executionMode):
 *
 *  - Blocked (Section 5.6): GPU and PIM serialize; per-token latency is
 *    the sum of the per-operation latencies, with the softmax between
 *    the attention score and attend phases charged to the GPU.
 *  - Overlapped (the NeuPIMs-style sub-batch pipeline of Figure 15):
 *    the batch splits into two sub-batches whose GPU and PIM phases run
 *    concurrently, so the step costs max(gpu, pim) per pipeline stage
 *    plus the non-overlappable softmax sync. Energy is identical to
 *    Blocked — the same kernels run either way.
 */

#ifndef PIMBA_SIM_SERVING_SIM_H
#define PIMBA_SIM_SERVING_SIM_H

#include <algorithm>

#include "core/stats.h"
#include "gpu/gpu_kernels.h"
#include "models/model_config.h"
#include "pim/pim_compute.h"
#include "sim/system.h"

namespace pimba {

/** Latency/energy outcome of one generation step (one token x batch). */
struct StepResult
{
    Seconds seconds;        ///< per-token step latency (mode-dependent)
    Breakdown latency;      ///< seconds per OpClass, blocked phase times
    Breakdown energy;       ///< joules per Fig. 14 category

    // Phase decomposition of the step. The three always sum to the
    // blocked-mode latency; under ExecutionMode::Overlapped the step's
    // `seconds` is max(gpuSeconds, pimSeconds) + syncSeconds instead
    // (and the per-OpClass latency breakdown keeps the blocked phase
    // times, so it sums to more than `seconds`).
    Seconds gpuSeconds;  ///< GPU-stream work (overlappable)
    Seconds pimSeconds;  ///< PIM kernel work (overlappable)
    Seconds syncSeconds; ///< GPU<->PIM sync (softmax between the
                         ///  PIM score and attend phases)

    /** Step latency if GPU and PIM phases serialize (Section 5.6). */
    Seconds blockedSeconds() const
    {
        return gpuSeconds + pimSeconds + syncSeconds;
    }
    /** Step latency under the two-sub-batch GPU<->PIM pipeline. */
    Seconds overlappedSeconds() const
    {
        return std::max(gpuSeconds, pimSeconds) + syncSeconds;
    }
};

/** Memory-footprint split of a serving configuration. */
struct MemoryUsage
{
    Bytes weights;
    Bytes state;
    Bytes kvCache;
    Bytes activations;

    Bytes total() const
    {
        return weights + state + kvCache + activations;
    }
};

/** Serving simulator for one system configuration. */
class ServingSimulator
{
  public:
    explicit ServingSimulator(const SystemConfig &system);

    /**
     * Simulate one generation step at sequence position @p seq_len.
     * All tensor-parallel shards run the same program; the returned
     * numbers are per-token wall latency and whole-system energy.
     */
    StepResult generationStep(const ModelConfig &model, int batch,
                              uint64_t seq_len) const;

    /**
     * Average generation step over the decode window, costed as the
     * step at the mean position of [input_len, input_len + output_len),
     * i.e. input_len + (output_len - 1) / 2 (floored for even windows).
     * That equals the window average only where attention cost is
     * affine in the cache length. The GPU's attention cost nearly is;
     * the PIM attention kernels are step functions of it (whole DRAM
     * rows and passes), so on PIM systems this is an approximation.
     */
    StepResult averagedStep(const ModelConfig &model, int batch,
                            uint64_t input_len, uint64_t output_len) const;

    /**
     * Simulate one prefill chunk: @p tokens prompt tokens of a single
     * request whose cache already holds @p seq_pos tokens. The chunk's
     * tokens flow through the same operator graph as a decode batch of
     * the same size (identical GEMM/state-update work per token). The
     * chunk is costed as one generation step of batch @p tokens at its
     * mean cache position seq_pos + (tokens - 1) / 2, floored for even
     * chunks (token i of the chunk attends a cache of length
     * seq_pos + i); like averagedStep(), that is exact only where
     * attention cost is affine in cache length.
     */
    StepResult prefillStep(const ModelConfig &model, uint64_t tokens,
                           uint64_t seq_pos) const;

    /**
     * Simulate one fused iteration that runs @p decode_batch decode
     * tokens (mean cache length @p decode_seq) together with
     * @p prefill_tokens prompt tokens (token-weighted mean cache
     * position @p prefill_pos) in the same operator launches, the
     * Sarathi-style chunked-prefill piggyback. The fused step pays the
     * per-step weight pass and launch overheads once, which is exactly
     * where it beats running a decode step and a prefill chunk
     * back-to-back. The fused step is costed at the token-weighted mean
     * cache position of its constituents, the same mean-position
     * approximation as averagedStep().
     */
    StepResult mixedStep(const ModelConfig &model, int decode_batch,
                         uint64_t decode_seq, uint64_t prefill_tokens,
                         uint64_t prefill_pos) const;

    /** Generation throughput in tokens (words) per second. */
    TokensPerSecond generationThroughput(const ModelConfig &model,
                                         int batch, uint64_t input_len,
                                         uint64_t output_len) const;

    /** Whole-system memory footprint at @p seq_len cached tokens. */
    MemoryUsage memoryUsage(const ModelConfig &model, int batch,
                            uint64_t seq_len) const;

    /**
     * Weight bytes the whole tensor-parallel group pins in HBM. Body
     * weights (projections, FFNs, and the vocab-sharded LM head)
     * partition across the shards, so their group total is independent
     * of the degree; the token-embedding table is replicated on every
     * shard (the lookup must be local), so its bytes scale with nGpus.
     * This — not the raw once-counted parameter bytes — is what the
     * serving engine subtracts from the HBM budget before carving the
     * block pool, so nGpus > 1 replicas do not over-pledge.
     */
    Bytes weightFootprint(const ModelConfig &model) const;

    /**
     * Memory a single request pins at @p seq_len cached tokens:
     * recurrent state + KV cache + transient activations, excluding the
     * (request-independent) weights. This is the unit the serving
     * engine's admission control reserves against the HBM budget.
     */
    Bytes requestFootprint(const ModelConfig &model,
                           uint64_t seq_len) const;

    const SystemConfig &system() const { return sys; }

    /**
     * Switch the GPU<->PIM execution mode. A StepCostStore calls this
     * on its own simulator copy when built for an overridden mode; all
     * subsequent step costs use the new mode.
     */
    void setExecutionMode(ExecutionMode mode) { sys.executionMode = mode; }

  private:
    void runOp(const OpSpec &op, StepResult &acc) const;
    void addGpuCost(OpClass cls, const GpuKernelCost &cost,
                    StepResult &acc) const;

    SystemConfig sys;
    GpuKernelModel gpuModel;
    std::optional<PimComputeModel> pimModel;
};

} // namespace pimba

#endif // PIMBA_SIM_SERVING_SIM_H
