#include "sim/serving_sim.h"

#include <cmath>

#include "core/logging.h"

namespace pimba {

ServingSimulator::ServingSimulator(const SystemConfig &system)
    : sys(system), gpuModel(system.gpu)
{
    if (auto design = sys.pim())
        pimModel.emplace(sys.hbm, *design);
}

void
ServingSimulator::addGpuCost(OpClass cls, const GpuKernelCost &cost,
                             StepResult &acc) const
{
    acc.seconds += cost.seconds;
    acc.gpuSeconds += cost.seconds;
    acc.latency.add(opClassKey(cls), cost.seconds.value());
    if (cls == OpClass::GEMM)
        acc.energy.add(BreakdownKey::GEMM, cost.energyJ.value());
    else
        acc.energy.add(BreakdownKey::Others, cost.energyJ.value());
}

void
ServingSimulator::runOp(const OpSpec &op, StepResult &acc) const
{
    const auto &gpu = sys.gpu;
    switch (op.cls) {
      case OpClass::GEMM:
      case OpClass::CausalConv:
      case OpClass::Discretization:
      case OpClass::Others: {
        addGpuCost(op.cls, gpuModel.kernel(op.flops, op.memBytes.value()), acc);
        return;
      }
      case OpClass::Communication: {
        GpuKernelCost cost = gpuModel.allReduce(op.memBytes.value(), sys.nGpus);
        acc.seconds += cost.seconds;
        acc.gpuSeconds += cost.seconds;
        acc.latency.add(opClassKey(op.cls), cost.seconds.value());
        acc.energy.add(BreakdownKey::Others, cost.energyJ.value());
        return;
      }
      case OpClass::StateUpdate: {
        if (sys.stateUpdateOnPim()) {
            PimKernelResult r = pimModel->stateUpdate(op.su);
            Seconds secs = r.seconds + Seconds(gpu.kernelLaunchOverhead);
            acc.seconds += secs;
            // The launch rides the GPU stream; the kernel itself can
            // overlap another sub-batch's GPU phase.
            acc.pimSeconds += r.seconds;
            acc.gpuSeconds += Seconds(gpu.kernelLaunchOverhead);
            acc.latency.add(opClassKey(op.cls), secs.value());
            Joules io = (r.energy.activation + r.energy.column +
                         r.energy.io) *
                        sys.nGpus;
            acc.energy.add(BreakdownKey::StateUpdateIo, io.value());
            acc.energy.add(BreakdownKey::StateUpdateCompute,
                           (r.energy.compute * sys.nGpus).value());
            return;
        }
        // GPU execution: the state is stored in this system's state
        // format; operands/outputs move in fp16. S = d (.) S + k v^T is
        // a read-modify-write of the whole state — the full state is
        // read once and the updated state written back once.
        double state_vals = static_cast<double>(op.su.instances) *
                            op.su.dimHead * op.su.dimState;
        double state_read =
            state_vals * bitsPerValue(sys.stateFormat()) / 8.0;
        double state_write = state_read;
        double opnd_bytes = static_cast<double>(op.su.instances) *
                            (3.0 * op.su.dimHead + 2.0 * op.su.dimState) *
                            2.0;
        double su_bytes = state_read + state_write + opnd_bytes;
        GpuKernelCost cost = gpuModel.kernel(op.flops, su_bytes);
        acc.seconds += cost.seconds;
        acc.gpuSeconds += cost.seconds;
        acc.latency.add(opClassKey(op.cls), cost.seconds.value());
        acc.energy.add(BreakdownKey::StateUpdateIo,
                       su_bytes * 8.0 * gpu.dramEnergyPerBit * sys.nGpus);
        acc.energy.add(BreakdownKey::StateUpdateCompute,
                       op.flops * gpu.computeEnergyPerFlop * sys.nGpus);
        return;
      }
      case OpClass::Attention: {
        // Softmax (and score normalization) always runs on the GPU,
        // blocking between the score and attend phases (Section 5.6).
        GpuKernelCost softmax = gpuModel.kernel(op.hostFlops,
                                                op.hostBytes.value());
        if (sys.attentionOnPim()) {
            PimKernelResult score = pimModel->attentionScore(op.attn);
            PimKernelResult attend = pimModel->attentionAttend(op.attn);
            Seconds secs = score.seconds + attend.seconds +
                           softmax.seconds +
                           Seconds(gpu.kernelLaunchOverhead);
            acc.seconds += secs;
            acc.pimSeconds += score.seconds + attend.seconds;
            // The softmax sits between the two PIM phases of the *same*
            // sub-batch, so it cannot be hidden behind the other
            // sub-batch's work — it is the pipeline's sync bubble.
            acc.syncSeconds += softmax.seconds;
            acc.gpuSeconds += Seconds(gpu.kernelLaunchOverhead);
            acc.latency.add(opClassKey(op.cls), secs.value());
            Joules io = (score.energy.activation + score.energy.column +
                         score.energy.io + attend.energy.activation +
                         attend.energy.column + attend.energy.io) *
                        sys.nGpus;
            Joules cmp = (score.energy.compute + attend.energy.compute) *
                         sys.nGpus;
            acc.energy.add(BreakdownKey::AttentionIo, io.value());
            acc.energy.add(BreakdownKey::AttentionCompute,
                           (cmp + softmax.energyJ * sys.nGpus).value());
            return;
        }
        double kv_vals = static_cast<double>(op.attn.instances) *
                         static_cast<double>(op.attn.seqLen) *
                         op.attn.dimHead;
        double kv_read = 2.0 * kv_vals * bitsPerValue(sys.kvFormat()) /
                         8.0;
        // Each step appends the new token's K and V to the cache before
        // reading it — one dimHead-wide write per instance per matrix.
        double kv_write = 2.0 * static_cast<double>(op.attn.instances) *
                          op.attn.dimHead *
                          bitsPerValue(sys.kvFormat()) / 8.0;
        double kv_bytes = kv_read + kv_write;
        GpuKernelCost cost = gpuModel.kernel(op.flops, kv_bytes);
        Seconds secs = cost.seconds + softmax.seconds;
        acc.seconds += secs;
        acc.gpuSeconds += secs;
        acc.latency.add(opClassKey(op.cls), secs.value());
        acc.energy.add(BreakdownKey::AttentionIo,
                       kv_bytes * 8.0 * gpu.dramEnergyPerBit * sys.nGpus);
        acc.energy.add(BreakdownKey::AttentionCompute,
                       ((Joules(op.flops * gpu.computeEnergyPerFlop) +
                         softmax.energyJ) * sys.nGpus).value());
        return;
      }
    }
    PIMBA_PANIC("unknown op class");
}

StepResult
ServingSimulator::generationStep(const ModelConfig &model, int batch,
                                 uint64_t seq_len) const
{
    StepResult acc;
    // One op buffer per thread, reused across steps: the op graph is
    // rebuilt every step but its capacity is stable, so the steady
    // state allocates nothing (sweep workers each get their own).
    static thread_local std::vector<OpSpec> ops;
    generationStepOpsInto(model, batch, seq_len, sys.nGpus, ops);
    for (const auto &op : ops)
        runOp(op, acc);
    // The two-sub-batch pipeline needs two sub-batches to fill both
    // stages and a PIM to overlap against; otherwise the step degrades
    // to the blocked schedule. Energy is untouched either way.
    if (sys.executionMode == ExecutionMode::Overlapped && batch >= 2 &&
        acc.pimSeconds > Seconds(0.0))
        acc.seconds = acc.overlappedSeconds();
    return acc;
}

StepResult
ServingSimulator::averagedStep(const ModelConfig &model, int batch,
                               uint64_t input_len,
                               uint64_t output_len) const
{
    PIMBA_ASSERT(output_len > 0, "empty decode window");
    // The window average is costed as the step at the mean of the
    // decode positions [input_len, input_len + output_len),
    // input_len + (output_len - 1) / 2: exact where attention cost is
    // affine in cache length, close where it is not (the PIM attention
    // kernels are step functions of it). The integer midpoint floors
    // that mean (exact for odd windows, half a position low for even
    // ones — the seed's output_len / 2 ceiled it, overcharging even
    // windows by the same half position).
    uint64_t mid = input_len + (output_len - 1) / 2;
    return generationStep(model, batch, mid);
}

StepPoint
prefillPoint(uint64_t tokens, uint64_t seq_pos)
{
    PIMBA_ASSERT(tokens > 0, "empty prefill chunk");
    PIMBA_ASSERT(tokens <= kMaxStepTokens,
                 "prefill chunk overflows a step batch");
    return {static_cast<int>(tokens), seq_pos + (tokens - 1) / 2};
}

StepPoint
mixedPoint(int decode_batch, uint64_t decode_seq, uint64_t prefill_tokens,
           uint64_t prefill_pos)
{
    PIMBA_ASSERT(decode_batch >= 0, "negative decode batch");
    uint64_t total = static_cast<uint64_t>(decode_batch) + prefill_tokens;
    PIMBA_ASSERT(total > 0, "empty fused iteration");
    PIMBA_ASSERT(total <= kMaxStepTokens,
                 "fused iteration overflows a step batch");
    // Prefill callers pass the midpoint position of their chunk(s).
    uint64_t mean =
        (static_cast<uint64_t>(decode_batch) * decode_seq +
         prefill_tokens * prefill_pos) / total;
    return {static_cast<int>(total), mean};
}

StepResult
ServingSimulator::prefillStep(const ModelConfig &model, uint64_t tokens,
                              uint64_t seq_pos) const
{
    StepPoint p = prefillPoint(tokens, seq_pos);
    return generationStep(model, p.tokens, p.position);
}

StepResult
ServingSimulator::mixedStep(const ModelConfig &model, int decode_batch,
                            uint64_t decode_seq, uint64_t prefill_tokens,
                            uint64_t prefill_pos) const
{
    StepPoint p =
        mixedPoint(decode_batch, decode_seq, prefill_tokens, prefill_pos);
    return generationStep(model, p.tokens, p.position);
}

TokensPerSecond
ServingSimulator::generationThroughput(const ModelConfig &model, int batch,
                                       uint64_t input_len,
                                       uint64_t output_len) const
{
    StepResult step = averagedStep(model, batch, input_len, output_len);
    PIMBA_ASSERT(step.seconds > Seconds(0.0), "zero step latency");
    return Tokens(batch) / step.seconds;
}

MemoryUsage
ServingSimulator::memoryUsage(const ModelConfig &model, int batch,
                              uint64_t seq_len) const
{
    MemoryUsage mem;
    mem.weights = Bytes(model.paramCount() * 2.0);
    mem.state = Bytes(batch * model.stateBytes(
        bitsPerValue(sys.stateFormat()) / 8.0));
    mem.kvCache = Bytes(
        batch * static_cast<double>(seq_len) *
        model.kvBytesPerToken(bitsPerValue(sys.kvFormat()) / 8.0));
    // Transient activations: a few residual-width buffers per request.
    mem.activations = Bytes(static_cast<double>(batch) * model.dModel *
                            16.0 * 2.0);
    return mem;
}

Bytes
ServingSimulator::weightFootprint(const ModelConfig &model) const
{
    // paramCount() counts the embedding table once; each extra
    // tensor-parallel shard keeps its own replica of it.
    double embedBytes =
        static_cast<double>(model.vocab) * model.dModel * 2.0;
    return Bytes(model.paramCount() * 2.0 +
                 static_cast<double>(sys.nGpus - 1) * embedBytes);
}

Bytes
ServingSimulator::requestFootprint(const ModelConfig &model,
                                   uint64_t seq_len) const
{
    MemoryUsage one = memoryUsage(model, 1, seq_len);
    return one.state + one.kvCache + one.activations;
}

} // namespace pimba
