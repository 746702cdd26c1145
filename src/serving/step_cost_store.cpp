#include "serving/step_cost_store.h"

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
StepCostStore::step(StepPoint p)
{
    ++counts.lookups;
    uint64_t key = stepMemoKey(p);
    if (const StepCost *hit = cache.find(key))
        return *hit;
    ++counts.misses;
    return cache.insert(
        key, costOf(sim.generationStep(modelCfg, p.tokens, p.position)));
}

StepCost
StepCostStore::decodeStep(int batch, uint64_t mean_seq)
{
    return step({batch, bucketCenter(mean_seq)});
}

StepCost
StepCostStore::prefillStep(uint64_t chunk, uint64_t seq_pos)
{
    return step(prefillPoint(chunk, bucketCenter(seq_pos)));
}

StepCost
StepCostStore::mixedStep(int decode_batch, uint64_t decode_seq,
                         uint64_t prefill_tokens, uint64_t prefill_pos)
{
    return step(mixedPoint(decode_batch, bucketCenter(decode_seq),
                           prefill_tokens, bucketCenter(prefill_pos)));
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
