/**
 * @file
 * Evaluated serving-system configurations (paper Section 6.1):
 * GPU, GPU+Q (int8 state/KV on the GPU), GPU+PIM (HBM-PIM),
 * Pimba, and the NeuPIMs-like attention-only PIM baseline (Fig. 15).
 */

#ifndef PIMBA_SIM_SYSTEM_H
#define PIMBA_SIM_SYSTEM_H

#include <optional>
#include <string>

#include "core/names.h"
#include "dram/hbm_config.h"
#include "gpu/gpu_config.h"
#include "pim/pim_compute.h"
#include "quant/format.h"

namespace pimba {

/// The serving systems compared in the evaluation.
enum class SystemKind
{
    GPU,     ///< plain GPU, fp16 state and KV cache
    GPU_Q,   ///< GPU with int8-quantized state/KV (Pimba's bit width)
    GPU_PIM, ///< GPU + HBM-PIM (time-multiplexed fp16 PIM)
    PIMBA,   ///< GPU + Pimba PIM (interleaved SPUs, MX8)
    NEUPIMS, ///< GPU + per-bank attention-only PIM, fp16
};

/// Display names matching the paper's figure legends.
inline constexpr Named<SystemKind> kSystemNames[] = {
    {SystemKind::GPU, "GPU"},
    {SystemKind::GPU_Q, "GPU+Q"},
    {SystemKind::GPU_PIM, "GPU+PIM"},
    {SystemKind::PIMBA, "Pimba"},
    {SystemKind::NEUPIMS, "NeuPIMs"},
};

inline std::string
systemName(SystemKind kind)
{
    return std::string(nameOf(kSystemNames, kind));
}

/// How GPU and PIM phases of one step are scheduled against each other.
///
/// Blocked is the paper's Section 5.6 model: every PIM kernel serializes
/// against the GPU stream, so step latency is the sum of all phase
/// latencies. Overlapped is the NeuPIMs-style sub-batch pipeline of
/// Figure 15: the decode batch splits into two sub-batches and one
/// sub-batch's PIM phases (state update, attention score/attend) run
/// concurrently with the other's GPU phases (GEMMs, softmax), so each
/// pipeline stage costs max(gpu, pim) instead of gpu + pim, plus the
/// non-overlappable softmax sync between the PIM score and attend
/// phases. Energy is unaffected — the same work runs either way.
enum class ExecutionMode
{
    Blocked,    ///< PIM ops serialize against the GPU stream (Sec. 5.6)
    Overlapped, ///< two-sub-batch GPU<->PIM pipeline (Fig. 15)
};

inline constexpr Named<ExecutionMode> kExecutionModeNames[] = {
    {ExecutionMode::Blocked, "blocked"},
    {ExecutionMode::Overlapped, "overlapped"},
};

inline std::string
executionModeName(ExecutionMode mode)
{
    return std::string(nameOf(kExecutionModeNames, mode));
}

/// Full system description.
struct SystemConfig
{
    SystemKind kind = SystemKind::GPU;
    GpuConfig gpu;
    HbmConfig hbm;
    int nGpus = 1; ///< tensor-parallel degree (one PIM device per GPU)
    /// GPU<->PIM phase scheduling; no effect on GPU-only systems.
    ExecutionMode executionMode = ExecutionMode::Blocked;

    /// PIM design used by this system (nullopt for GPU-only systems).
    std::optional<PimDesign> pim() const;

    /// Storage format of the recurrent state.
    NumberFormat stateFormat() const;
    /// Storage format of the KV cache.
    NumberFormat kvFormat() const;

    /// True if state updates execute on the PIM.
    bool stateUpdateOnPim() const;
    /// True if attention executes on the PIM.
    bool attentionOnPim() const;
};

/// Build a system around the A100/HBM2E (or given) platform.
SystemConfig makeSystem(SystemKind kind, int n_gpus = 1,
                        const GpuConfig &gpu = a100Config(),
                        const HbmConfig &hbm = hbm2eConfig());

/// All four systems of Figs. 12-14.
std::vector<SystemKind> mainSystems();

} // namespace pimba

#endif // PIMBA_SIM_SYSTEM_H
