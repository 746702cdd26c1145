/**
 * @file
 * Model zoo: the six evaluated LLM architectures (Section 6.1) with
 * small-scale presets and the paper's 70B scaling rule, plus per-token
 * operator-graph generation for the generation (decode) phase.
 *
 * Architectures: RetNet, GLA, HGRN2, Mamba-2 (SU-LLMs, 2.7B), Zamba2
 * (7B hybrid, one attention layer per six Mamba-2 layers) and OPT
 * (attention-based, 6.7B "7B"). Hyper-parameters follow the public
 * checkpoints where the paper names them and standard conventions where
 * it does not; parameter counts land within a few percent of nominal.
 */

#ifndef PIMBA_MODELS_MODEL_CONFIG_H
#define PIMBA_MODELS_MODEL_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/units.h"
#include "pim/data_layout.h"

namespace pimba {

/** Layer families a model can stack. */
enum class LayerKind
{
    StateUpdateLayer, ///< linear attention / SSM / gated RNN block
    AttentionLayer,   ///< softmax attention block
};

/** Sub-families of the state-update layer (affects extra ops). */
enum class SuVariant
{
    RetNet, ///< scalar decay, swiglu FFN
    GLA,    ///< gating vector (low-rank), swiglu FFN
    HGRN2,  ///< forget-gate vector RNN, swiglu FFN
    Mamba2, ///< selective SSM: causal conv + discretization, no FFN
    None,   ///< attention-only model
};

/** Operation classes of the paper's latency/energy breakdowns. */
enum class OpClass
{
    StateUpdate,
    Attention,
    Discretization,
    CausalConv,
    GEMM,
    Communication,
    Others,
};

/** Latency-breakdown category of @p cls; its breakdownKeyName() is the
 *  label of the paper's figure legends. */
BreakdownKey opClassKey(OpClass cls);

/** One operation of a generation step (per token, whole model shard). */
struct OpSpec
{
    OpClass cls;
    double flops = 0.0;    ///< floating point work
    Bytes memBytes{0.0}; ///< HBM traffic when executed on the GPU
    /** Valid when cls == StateUpdate. */
    StateUpdateShape su{};
    /** Valid when cls == Attention. */
    AttentionShape attn{};
    /** Softmax / accumulation GPU work between PIM attention phases. */
    double hostFlops = 0.0;
    Bytes hostBytes{0.0};
};

/** Full architectural description of one model. */
struct ModelConfig
{
    std::string name;
    SuVariant variant = SuVariant::None;

    int layers = 32;        ///< total blocks
    int attnEvery = 0;      ///< 0: none; 1: all attention; k: every k-th
    int dModel = 2560;

    // State-update path geometry.
    int suHeads = 0;
    int dimHead = 0;   ///< per-head q/k/decay dimension
    int dimState = 0;  ///< per-head value/state dimension

    // Attention path geometry.
    int attnHeads = 0;
    int attnDimHead = 0;

    int ffnDim = 0;        ///< swiglu inner dim (0: no FFN, e.g. Mamba-2)
    int convKernel = 0;    ///< causal conv width (Mamba-2 family)
    int nGroups = 8;       ///< Mamba-2 B/C groups
    int vocab = 50272;

    /** Number of attention blocks in the stack. */
    int attentionLayers() const;
    /** Number of state-update blocks in the stack. */
    int stateUpdateLayers() const;

    /** Weight parameter count (embeddings included once). */
    double paramCount() const;

    /** Per-layer weight count of the state-update block. */
    double suLayerParams() const;
    /** Per-layer weight count of the attention block. */
    double attnLayerParams() const;

    /** Per-request state bytes at the given storage width. */
    double stateBytes(double bytes_per_value) const;
    /** Per-request, per-token KV-cache bytes at the given width. */
    double kvBytesPerToken(double bytes_per_value) const;
};

/** 2.7B-class presets (Section 6.1). */
ModelConfig retnet2p7b();
ModelConfig gla2p7b();
ModelConfig hgrn2_2p7b();
ModelConfig mamba2_2p7b();
/** 7B-class presets. */
ModelConfig zamba2_7b();
ModelConfig opt7b();
/** 2.7B transformer used by Fig. 1(a). */
ModelConfig opt2p7b();

/**
 * Scale a model to ~@p target_params following Section 6.1: scale layers
 * and hidden dimension proportionally, keep the head count, and realign
 * dimHead (and attention head dim) with the scaled hidden size.
 */
ModelConfig scaleModel(const ModelConfig &base, double target_params);

/** The six models of Figs. 12-14, small scale. */
std::vector<ModelConfig> evaluationModels();
/** The same six models scaled to ~70B. */
std::vector<ModelConfig> evaluationModels70b();

/**
 * Operator graph of one generation step (one token for every request in
 * the batch) on one tensor-parallel shard.
 *
 * @param batch Requests in the batch.
 * @param seq_len Current sequence position (attention cache length).
 * @param tp_degree Tensor-parallel shard count (heads are split).
 */
std::vector<OpSpec> generationStepOps(const ModelConfig &model,
                                      int batch, uint64_t seq_len,
                                      int tp_degree = 1);

/**
 * generationStepOps() into a caller-owned vector (cleared first), so a
 * hot caller can reuse one buffer across steps. The per-layer op
 * sequence of a stack is independent of the layer index, so the body is
 * built once per layer family and replicated — identical OpSpecs, not
 * re-derived ones — for the remaining layers.
 */
void generationStepOpsInto(const ModelConfig &model, int batch,
                           uint64_t seq_len, int tp_degree,
                           std::vector<OpSpec> &ops);

} // namespace pimba

#endif // PIMBA_MODELS_MODEL_CONFIG_H
