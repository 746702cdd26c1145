#include "models/model_config.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "core/units.h"

namespace pimba {

BreakdownKey
opClassKey(OpClass cls)
{
    switch (cls) {
      case OpClass::StateUpdate: return BreakdownKey::StateUpdate;
      case OpClass::Attention: return BreakdownKey::Attention;
      case OpClass::Discretization: return BreakdownKey::Discretization;
      case OpClass::CausalConv: return BreakdownKey::CausalConv;
      case OpClass::GEMM: return BreakdownKey::GEMM;
      case OpClass::Communication: return BreakdownKey::Communication;
      case OpClass::Others: return BreakdownKey::Others;
    }
    PIMBA_PANIC("unknown op class");
}

int
ModelConfig::attentionLayers() const
{
    if (attnEvery == 0)
        return 0;
    if (attnEvery == 1)
        return layers;
    return layers / attnEvery;
}

int
ModelConfig::stateUpdateLayers() const
{
    return layers - attentionLayers();
}

double
ModelConfig::suLayerParams() const
{
    if (variant == SuVariant::None)
        return 0.0;
    double d = dModel;
    double qk_dim = static_cast<double>(suHeads) * dimHead;
    double v_dim = static_cast<double>(suHeads) * dimState;
    double ffn = 3.0 * d * ffnDim; // swiglu: gate/up/down

    switch (variant) {
      case SuVariant::RetNet:
        // Q, K projections; V and G (output gate) at the value width;
        // output projection; swiglu FFN.
        return 2.0 * d * qk_dim + 2.0 * d * v_dim + v_dim * d + ffn;
      case SuVariant::GLA:
        // Q, K; V; low-rank (rank 16) gate; output projection; FFN.
        return 2.0 * d * qk_dim + d * v_dim + (d * 16.0 + 16.0 * qk_dim) +
               v_dim * d + ffn;
      case SuVariant::HGRN2:
        // Forget gate and input at qk width, output gate and value at
        // value width, output projection; FFN.
        return 2.0 * d * qk_dim + 2.0 * d * v_dim + v_dim * d + ffn;
      case SuVariant::Mamba2: {
        // Merged in_proj -> (z, x, B, C, dt), depthwise conv, out_proj.
        double d_inner = static_cast<double>(suHeads) * dimHead;
        double conv_ch = d_inner + 2.0 * nGroups * dimState;
        double in_proj = d * (2.0 * d_inner + 2.0 * nGroups * dimState +
                              suHeads);
        return in_proj + conv_ch * convKernel + d_inner * d;
      }
      case SuVariant::None:
        break;
    }
    return 0.0;
}

double
ModelConfig::attnLayerParams() const
{
    if (attentionLayers() == 0)
        return 0.0;
    double d = dModel;
    double proj = 4.0 * d * static_cast<double>(attnHeads) * attnDimHead;
    // OPT uses a 2-matrix ReLU FFN; hybrid blocks use swiglu.
    double ffn_mats = (variant == SuVariant::None) ? 2.0 : 3.0;
    return proj + ffn_mats * d * ffnDim;
}

double
ModelConfig::paramCount() const
{
    return stateUpdateLayers() * suLayerParams() +
           attentionLayers() * attnLayerParams() +
           static_cast<double>(vocab) * dModel;
}

double
ModelConfig::stateBytes(double bytes_per_value) const
{
    return static_cast<double>(stateUpdateLayers()) * suHeads * dimHead *
           dimState * bytes_per_value;
}

double
ModelConfig::kvBytesPerToken(double bytes_per_value) const
{
    return static_cast<double>(attentionLayers()) * attnHeads *
           attnDimHead * 2.0 * bytes_per_value;
}

ModelConfig
retnet2p7b()
{
    ModelConfig m;
    m.name = "RetNet";
    m.variant = SuVariant::RetNet;
    m.layers = 32;
    m.dModel = 2560;
    m.suHeads = 10;
    m.dimHead = 256;  // qk head dim
    m.dimState = 512; // v head dim (2x qk in RetNet)
    m.ffnDim = 4352;
    return m;
}

ModelConfig
gla2p7b()
{
    ModelConfig m;
    m.name = "GLA";
    m.variant = SuVariant::GLA;
    m.layers = 32;
    m.dModel = 2560;
    m.suHeads = 4;
    m.dimHead = 320;  // dk = d/2 across 4 heads
    m.dimState = 640; // dv = d across 4 heads
    m.ffnDim = 6912;
    return m;
}

ModelConfig
hgrn2_2p7b()
{
    ModelConfig m;
    m.name = "HGRN2";
    m.variant = SuVariant::HGRN2;
    m.layers = 32;
    m.dModel = 2560;
    m.suHeads = 20;
    m.dimHead = 128;  // state expansion 128
    m.dimState = 128;
    m.ffnDim = 6912;
    return m;
}

ModelConfig
mamba2_2p7b()
{
    ModelConfig m;
    m.name = "Mamba-2";
    m.variant = SuVariant::Mamba2;
    m.layers = 64;
    m.dModel = 2560;
    m.suHeads = 80;   // d_inner = 2 * dModel, headdim 64
    m.dimHead = 64;
    m.dimState = 128;
    m.convKernel = 4;
    m.nGroups = 8;
    m.ffnDim = 0;     // Mamba-2 stacks have no separate FFN
    return m;
}

ModelConfig
zamba2_7b()
{
    ModelConfig m;
    m.name = "Zamba2";
    m.variant = SuVariant::Mamba2;
    m.layers = 77;
    m.attnEvery = 7;  // one attention block per six Mamba-2 blocks
    m.dModel = 3712;
    m.suHeads = 116;  // d_inner = 2 * dModel, headdim 64
    m.dimHead = 64;
    m.dimState = 128;
    m.convKernel = 4;
    m.nGroups = 8;
    m.attnHeads = 29;
    m.attnDimHead = 128;
    m.ffnDim = 9984;  // swiglu FFN of the attention blocks
    return m;
}

ModelConfig
opt7b()
{
    ModelConfig m;
    m.name = "OPT";
    m.variant = SuVariant::None;
    m.layers = 32;
    m.attnEvery = 1;
    m.dModel = 4096;
    m.attnHeads = 32;
    m.attnDimHead = 128;
    m.ffnDim = 16384;
    return m;
}

ModelConfig
opt2p7b()
{
    ModelConfig m = opt7b();
    m.name = "Transformer";
    m.dModel = 2560;
    m.attnHeads = 32;
    m.attnDimHead = 80;
    m.ffnDim = 10240;
    return m;
}

ModelConfig
scaleModel(const ModelConfig &base, double target_params)
{
    ModelConfig m = base;
    double params = base.paramCount();
    PIMBA_ASSERT(params > 0, "cannot scale an empty model");
    // params ~ layers * d^2; proportional scaling of layers and d gives
    // params ~ s^3 (Section 6.1, following scaling-law practice [34]).
    double s = std::cbrt(target_params / params);

    auto round_to = [](double v, int mult) {
        return std::max(mult, static_cast<int>(
            std::round(v / mult) * mult));
    };

    m.dModel = round_to(base.dModel * s, 128);
    double ds = static_cast<double>(m.dModel) / base.dModel;
    // Head counts stay fixed (increasing them can hurt perplexity,
    // Section 6.1 [80]); head and state dims realign with the hidden
    // size so each head widens proportionally.
    if (base.suHeads > 0) {
        m.dimHead = round_to(base.dimHead * ds, 16);
        m.dimState = round_to(base.dimState * ds, 16);
    }
    if (base.attnHeads > 0)
        m.attnDimHead = round_to(base.attnDimHead * ds, 16);
    if (base.ffnDim > 0)
        m.ffnDim = round_to(base.ffnDim * ds, 128);

    // Solve the layer count against the widened per-layer weights so
    // the total lands on the target (keeping the hybrid block ratio).
    double body = target_params - static_cast<double>(m.vocab) * m.dModel;
    if (base.attnEvery == 0) {
        m.layers = std::max(1, static_cast<int>(
            std::round(body / m.suLayerParams())));
    } else if (base.attnEvery == 1) {
        m.layers = std::max(1, static_cast<int>(
            std::round(body / m.attnLayerParams())));
    } else {
        double period = (base.attnEvery - 1) * m.suLayerParams() +
                        m.attnLayerParams();
        int periods = std::max(1, static_cast<int>(
            std::round(body / period)));
        m.layers = periods * base.attnEvery;
    }
    return m;
}

std::vector<ModelConfig>
evaluationModels()
{
    return {retnet2p7b(), gla2p7b(), hgrn2_2p7b(), mamba2_2p7b(),
            zamba2_7b(), opt7b()};
}

std::vector<ModelConfig>
evaluationModels70b()
{
    std::vector<ModelConfig> out;
    for (const auto &m : evaluationModels()) {
        ModelConfig big = scaleModel(m, 70e9);
        big.name = m.name;
        out.push_back(big);
    }
    return out;
}

namespace {

/** Append a GEMM op with weight streaming and activation traffic. */
void
addGemm(std::vector<OpSpec> &ops, double batch, double weights,
        double in_dim, double out_dim)
{
    OpSpec op;
    op.cls = OpClass::GEMM;
    op.flops = 2.0 * batch * weights;
    op.memBytes = Bytes(weights * 2.0 + batch * (in_dim + out_dim) * 2.0);
    ops.push_back(op);
}

} // namespace

std::vector<OpSpec>
generationStepOps(const ModelConfig &model, int batch, uint64_t seq_len,
                  int tp_degree)
{
    std::vector<OpSpec> ops;
    generationStepOpsInto(model, batch, seq_len, tp_degree, ops);
    return ops;
}

namespace {

/** Append @p copies copies of the ops from @p first to the end. */
void
replicateOps(std::vector<OpSpec> &ops, size_t first, int copies)
{
    size_t per_layer = ops.size() - first;
    ops.reserve(ops.size() + per_layer * static_cast<size_t>(copies));
    for (int c = 0; c < copies; ++c)
        for (size_t i = 0; i < per_layer; ++i)
            ops.push_back(ops[first + i]);
}

} // namespace

void
generationStepOpsInto(const ModelConfig &model, int batch,
                      uint64_t seq_len, int tp_degree,
                      std::vector<OpSpec> &ops)
{
    ops.clear();
    const double b = batch;
    const double d = model.dModel;
    const int tp = std::max(1, tp_degree);

    const int su_layers = model.stateUpdateLayers();
    const int attn_layers = model.attentionLayers();

    // --- State-update blocks ---
    if (su_layers > 0) {
        double heads = static_cast<double>(model.suHeads) / tp;
        uint64_t inst = ceilDiv<uint64_t>(
            static_cast<uint64_t>(batch) * model.suHeads,
            static_cast<uint64_t>(tp));
        double qk_dim = heads * model.dimHead;
        double v_dim = heads * model.dimState;
        double d_inner = qk_dim; // Mamba-2 naming

        // The block's op sequence does not depend on the layer index —
        // every stacked block is architecturally identical — so one
        // layer is built and the rest are copies (replicateOps below).
        size_t first = ops.size();
        {
            // Input projections (q/k/v/decay or merged in_proj).
            double proj_w = 0.0;
            double out_w = 0.0;
            switch (model.variant) {
              case SuVariant::RetNet:
              case SuVariant::HGRN2:
                proj_w = 2.0 * d * qk_dim + 2.0 * d * v_dim;
                out_w = v_dim * d;
                break;
              case SuVariant::GLA:
                proj_w = 2.0 * d * qk_dim + d * v_dim +
                         (d * 16.0 + 16.0 * qk_dim);
                out_w = v_dim * d;
                break;
              case SuVariant::Mamba2:
                proj_w = d * (2.0 * d_inner +
                              2.0 * model.nGroups * model.dimState +
                              heads);
                out_w = d_inner * d;
                break;
              case SuVariant::None:
                PIMBA_PANIC("state-update layer in attention-only model");
            }
            addGemm(ops, b, proj_w, d, proj_w / d);

            if (model.variant == SuVariant::Mamba2) {
                // Depthwise causal conv over x/B/C channels: the rolling
                // conv window is read and written per token.
                double ch = d_inner + 2.0 * model.nGroups * model.dimState;
                OpSpec conv;
                conv.cls = OpClass::CausalConv;
                conv.flops = 2.0 * b * ch * model.convKernel;
                conv.memBytes = Bytes(b * ch * 2.0 * model.convKernel + b * ch * 4.0);
                ops.push_back(conv);

                // Discretization: dt softplus, a = exp(dt * A), dt * x.
                OpSpec disc;
                disc.cls = OpClass::Discretization;
                disc.flops = 8.0 * b * d_inner;
                disc.memBytes = Bytes(4.0 * b * d_inner * 2.0);
                ops.push_back(disc);
            }

            // The state update itself (Eq. 2).
            OpSpec su;
            su.cls = OpClass::StateUpdate;
            su.su.instances = inst;
            su.su.dimHead = model.dimHead;
            su.su.dimState = model.dimState;
            double state_vals = static_cast<double>(inst) *
                                model.dimHead * model.dimState;
            su.flops = 6.0 * state_vals;
            su.memBytes = Bytes(2.0 * state_vals * 2.0 +
                          static_cast<double>(inst) *
                              (3.0 * model.dimHead +
                               2.0 * model.dimState) * 2.0);
            ops.push_back(su);

            // Output projection + FFN.
            addGemm(ops, b, out_w, v_dim, d);
            if (model.ffnDim > 0) {
                double ffn_w = 3.0 * d * (model.ffnDim / tp);
                addGemm(ops, b, ffn_w, d, model.ffnDim / tp);
            }

            // Norms, residuals, activation glue.
            OpSpec others;
            others.cls = OpClass::Others;
            others.flops = 10.0 * b * d;
            others.memBytes = Bytes(6.0 * b * d * 2.0);
            ops.push_back(others);

            if (tp > 1) {
                OpSpec comm;
                comm.cls = OpClass::Communication;
                // All-reduce after the mixer and (if present) the FFN.
                comm.memBytes = Bytes((model.ffnDim > 0 ? 2.0 : 1.0) * b * d * 2.0);
                ops.push_back(comm);
            }
        }
        replicateOps(ops, first, su_layers - 1);
    }

    // --- Attention blocks ---
    if (attn_layers > 0) {
        double heads = static_cast<double>(model.attnHeads) / tp;
        uint64_t inst = ceilDiv<uint64_t>(
            static_cast<uint64_t>(batch) * model.attnHeads,
            static_cast<uint64_t>(tp));
        double attn_dim = heads * model.attnDimHead;

        size_t first = ops.size();
        {
            addGemm(ops, b, 3.0 * d * attn_dim, d, 3.0 * attn_dim);

            OpSpec at;
            at.cls = OpClass::Attention;
            at.attn.instances = inst;
            at.attn.dimHead = model.attnDimHead;
            at.attn.seqLen = seq_len;
            double kv_vals = static_cast<double>(at.attn.instances) *
                             static_cast<double>(seq_len) *
                             model.attnDimHead;
            at.flops = 4.0 * kv_vals;          // score + attend MACs
            at.memBytes = Bytes(2.0 * kv_vals * 2.0); // K and V reads (fp16)
            at.hostFlops = 5.0 *
                           static_cast<double>(at.attn.instances) *
                           static_cast<double>(seq_len); // softmax
            at.hostBytes =
                Bytes(4.0 * static_cast<double>(at.attn.instances) *
                      static_cast<double>(seq_len));
            ops.push_back(at);

            addGemm(ops, b, attn_dim * d, attn_dim, d);
            if (model.ffnDim > 0) {
                double mats = (model.variant == SuVariant::None) ? 2.0
                                                                 : 3.0;
                double ffn_w = mats * d * (model.ffnDim / tp);
                addGemm(ops, b, ffn_w, d, model.ffnDim / tp);
            }

            OpSpec others;
            others.cls = OpClass::Others;
            others.flops = 10.0 * b * d;
            others.memBytes = Bytes(6.0 * b * d * 2.0);
            ops.push_back(others);

            if (tp > 1) {
                OpSpec comm;
                comm.cls = OpClass::Communication;
                comm.memBytes = Bytes(2.0 * b * d * 2.0);
                ops.push_back(comm);
            }
        }
        replicateOps(ops, first, attn_layers - 1);
    }

    // LM head (sharded along vocab) + embedding glue.
    addGemm(ops, b, static_cast<double>(model.vocab) * d / tp, d,
            static_cast<double>(model.vocab) / tp);
    OpSpec embed;
    embed.cls = OpClass::Others;
    embed.flops = b * d;
    embed.memBytes = Bytes(b * d * 4.0);
    ops.push_back(embed);
}

} // namespace pimba
