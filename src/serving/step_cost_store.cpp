#include "serving/step_cost_store.h"

#include "core/logging.h"
#include "serving/step_memo.h"

namespace pimba {

namespace {

StepCost
costOf(const StepResult &r)
{
    return {r.seconds, r.gpuSeconds, r.pimSeconds, r.syncSeconds};
}

} // namespace

StepCostStore::StepCostStore(const ServingSimulator &sim_,
                             const ModelConfig &model,
                             std::optional<ExecutionMode> mode)
    : sim(sim_), modelCfg(model)
{
    if (mode)
        sim.setExecutionMode(*mode);
}

StepCost
StepCostStore::decodeStep(int batch, uint64_t mean_seq)
{
    ++counts.decode.lookups;
    uint64_t key = decodeMemoKey(batch, mean_seq);
    if (const StepCost *hit = decodeCache.find(key))
        return *hit;
    ++counts.decode.misses;
    return decodeCache.insert(
        key,
        costOf(sim.generationStep(modelCfg, batch, bucketCenter(mean_seq))));
}

StepCost
StepCostStore::prefillStep(uint64_t chunk, uint64_t seq_pos)
{
    // The base cache position is bucketed as in the decode memo,
    // evaluated at the bucket *center* like decodeStep (the seed
    // evaluated this memo at the bucket floor, biasing prefill cost low
    // by half a bucket). step_memo.h bounds the error this costs.
    ++counts.prefill.lookups;
    uint64_t key = prefillMemoKey(chunk, seq_pos);
    if (const StepCost *hit = prefillCache.find(key))
        return *hit;
    ++counts.prefill.misses;
    return prefillCache.insert(
        key,
        costOf(sim.prefillStep(modelCfg, chunk, bucketCenter(seq_pos))));
}

StepCost
StepCostStore::mixedStep(int decode_batch, uint64_t decode_seq,
                         uint64_t prefill_tokens, uint64_t prefill_pos)
{
    PIMBA_ASSERT(static_cast<uint64_t>(decode_batch) < kMixedMaxBatch &&
                     prefill_tokens < kMixedMaxPrefillTokens &&
                     seqBucket(decode_seq) < kMixedMaxBucket &&
                     seqBucket(prefill_pos) < kMixedMaxBucket,
                 "fused-step memo key overflow");
    ++counts.mixed.lookups;
    uint64_t key = mixedMemoKey(decode_batch, decode_seq, prefill_tokens,
                                prefill_pos);
    if (const StepCost *hit = mixedCache.find(key))
        return *hit;
    ++counts.mixed.misses;
    return mixedCache.insert(
        key, costOf(sim.mixedStep(modelCfg, decode_batch,
                                  bucketCenter(decode_seq), prefill_tokens,
                                  bucketCenter(prefill_pos))));
}

std::shared_ptr<StepCostStore>
StepCostStores::get(SystemKind kind, int nGpus,
                    std::optional<ExecutionMode> mode)
{
    SystemConfig sys = makeSystem(kind, nGpus);
    const ExecutionMode resolved = mode.value_or(sys.executionMode);
    for (const Entry &e : stores)
        if (e.kind == kind && e.nGpus == nGpus && e.mode == resolved)
            return e.store;
    auto store = std::make_shared<StepCostStore>(ServingSimulator(sys),
                                                 modelCfg, resolved);
    stores.push_back({kind, nGpus, resolved, store});
    return store;
}

} // namespace pimba
