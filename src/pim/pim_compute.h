/**
 * @file
 * Cycle-level performance and energy model of a PIM device executing the
 * state-update and attention kernels, built on the DRAM command scheduler.
 *
 * One pseudo-channel's command stream is simulated (all pseudo-channels
 * run the same all-bank program in parallel); per-pass command counts come
 * from the data layout (Section 5.1(3)), the per-COMP column throughput
 * from the SPU design (Section 5.2), and the issue cycles from the Table 1
 * timing rules with the Fig. 11 overlaps.
 */

#ifndef PIMBA_PIM_PIM_COMPUTE_H
#define PIMBA_PIM_PIM_COMPUTE_H

#include <string>

#include "core/flat_table.h"
#include "dram/hbm_config.h"
#include "dram/pim_scheduler.h"
#include "pim/data_layout.h"
#include "pim/spu.h"
#include "quant/format.h"

namespace pimba {

/** A PIM design point: compute organization plus storage format. */
struct PimDesign
{
    std::string name;
    PimStyle style;
    NumberFormat dataFormat;
    bool supportsStateUpdate = true;
    bool supportsAttention = true;
};

/** Pimba: interleaved SPUs with MX8 state/KV (the paper's design). */
PimDesign pimbaDesign();

/** HBM-PIM baseline: time-multiplexed fp16 ALUs (GPU+PIM system). */
PimDesign hbmPimDesign();

/** Per-bank pipelined design of Fig. 5 (fp16 unless overridden). */
PimDesign perBankPipelinedDesign(NumberFormat fmt = NumberFormat::FP16);

/** NeuPIMs-like baseline: per-bank fp16 GEMV PIM, attention only. */
PimDesign neupimsDesign();

/** Energy split of one kernel invocation (whole device). */
struct PimEnergy
{
    Joules activation; ///< row activations
    Joules column;     ///< internal column accesses
    Joules io;         ///< operand / result transfers on the bus
    Joules compute;    ///< SPE arithmetic

    Joules total() const { return activation + column + io + compute; }
};

/** Result of one kernel invocation on the device. */
struct PimKernelResult
{
    Cycles cycles;          ///< per-pseudo-channel finish cycle
    Seconds seconds;        ///< wall time of the kernel
    PimCommandCounts counts;///< commands issued per pseudo-channel
    PimEnergy energy;       ///< whole-device energy
};

/**
 * Performance/energy model of one PIM device.
 *
 * Kernel results are memoized by their exact shape: every one of a
 * model's stacked layers invokes the device with identical shapes, so
 * the per-command DRAM simulation runs once per distinct shape and the
 * stored result — bit-identical to recomputation, since the model is a
 * pure function of (shape, config) — is replayed for the rest. The
 * caches make the model stateful-but-const; a model instance is
 * therefore not safe to share across threads. The serving layer's one
 * simulator per cost configuration lives in a StepCostStore
 * (serving/step_cost_store.h), shared by the engines of one fleet or
 * one search on one thread; each sweep worker builds its own.
 */
class PimComputeModel
{
  public:
    PimComputeModel(const HbmConfig &hbm, const PimDesign &design);

    /** Full state-update kernel: S = d ⊙ S + k v^T ; y = S^T q. */
    PimKernelResult stateUpdate(const StateUpdateShape &shape) const;

    /** Attention score phase: s = K q over the cached keys. */
    PimKernelResult attentionScore(const AttentionShape &shape) const;

    /** Attention attend phase: y = V^T softmax(s). */
    PimKernelResult attentionAttend(const AttentionShape &shape) const;

    const HbmConfig &hbm() const { return hbmCfg; }
    const PimDesign &design() const { return pimDesign; }

  private:
    PimKernelResult runPasses(uint64_t passes, uint64_t total_comps,
                              uint64_t reg_write_cmds,
                              uint64_t result_read_cmds,
                              uint64_t processed_bytes_per_pc,
                              bool writes_back) const;

    PimKernelResult stateUpdateUncached(
        const StateUpdateShape &shape) const;
    PimKernelResult attentionScoreUncached(
        const AttentionShape &shape) const;
    PimKernelResult attentionAttendUncached(
        const AttentionShape &shape) const;

    HbmConfig hbmCfg;
    PimDesign pimDesign;

    // Shape-keyed result memos (see class comment). Shapes whose fields
    // exceed the packed-key ranges fall back to direct computation.
    mutable FlatTable<PimKernelResult> suCache;
    mutable FlatTable<PimKernelResult> scoreCache;
    mutable FlatTable<PimKernelResult> attendCache;
};

} // namespace pimba

#endif // PIMBA_PIM_PIM_COMPUTE_H
