#include "serving/step_cost_store.h"

#include "core/logging.h"
#include "serving/step_memo.h"

namespace pimba {

namespace {

StepPhases
phasesOf(const StepResult &r)
{
    StepPhases p;
    p.gpu = r.gpuSeconds.value();
    p.pim = r.pimSeconds.value();
    p.sync = r.syncSeconds.value();
    return p;
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

double
StepCostStore::decodeSeconds(int batch, uint64_t mean_seq)
{
    ++counts.decode.lookups;
    uint64_t key = decodeMemoKey(batch, mean_seq);
    if (const double *hit = decodeCache.find(key))
        return *hit;
    ++counts.decode.misses;
    double secs =
        sim.generationStep(modelCfg, batch, bucketCenter(mean_seq))
            .seconds.value();
    return decodeCache.insert(key, secs);
}

double
StepCostStore::prefillSeconds(uint64_t chunk, uint64_t seq_pos)
{
    // The base cache position is bucketed as in the decode memo,
    // evaluated at the bucket *center* like decodeSeconds (the seed
    // evaluated this memo at the bucket floor, biasing prefill cost low
    // by half a bucket). step_memo.h bounds the error this costs.
    ++counts.prefill.lookups;
    uint64_t key = prefillMemoKey(chunk, seq_pos);
    if (const double *hit = prefillCache.find(key))
        return *hit;
    ++counts.prefill.misses;
    double secs = sim.prefillStep(modelCfg, chunk, bucketCenter(seq_pos))
                      .seconds.value();
    return prefillCache.insert(key, secs);
}

double
StepCostStore::mixedSeconds(int decode_batch, uint64_t decode_seq,
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
    if (const double *hit = mixedCache.find(key))
        return *hit;
    ++counts.mixed.misses;
    double secs = sim.mixedStep(modelCfg, decode_batch,
                                bucketCenter(decode_seq), prefill_tokens,
                                bucketCenter(prefill_pos))
                      .seconds.value();
    return mixedCache.insert(key, secs);
}

StepPhases
StepCostStore::decodePhases(int batch, uint64_t mean_seq)
{
    ++counts.decodePhases.lookups;
    uint64_t key = decodeMemoKey(batch, mean_seq);
    if (const StepPhases *hit = decodePhaseCache.find(key))
        return *hit;
    ++counts.decodePhases.misses;
    return decodePhaseCache.insert(
        key, phasesOf(sim.generationStep(modelCfg, batch,
                                         bucketCenter(mean_seq))));
}

StepPhases
StepCostStore::prefillPhases(uint64_t chunk, uint64_t seq_pos)
{
    ++counts.prefillPhases.lookups;
    uint64_t key = prefillMemoKey(chunk, seq_pos);
    if (const StepPhases *hit = prefillPhaseCache.find(key))
        return *hit;
    ++counts.prefillPhases.misses;
    return prefillPhaseCache.insert(
        key,
        phasesOf(sim.prefillStep(modelCfg, chunk, bucketCenter(seq_pos))));
}

StepPhases
StepCostStore::mixedPhases(int decode_batch, uint64_t decode_seq,
                           uint64_t prefill_tokens, uint64_t prefill_pos)
{
    // Bounds were already asserted by the mixedSeconds call that costed
    // this same iteration.
    ++counts.mixedPhases.lookups;
    uint64_t key = mixedMemoKey(decode_batch, decode_seq, prefill_tokens,
                                prefill_pos);
    if (const StepPhases *hit = mixedPhaseCache.find(key))
        return *hit;
    ++counts.mixedPhases.misses;
    return mixedPhaseCache.insert(
        key, phasesOf(sim.mixedStep(modelCfg, decode_batch,
                                    bucketCenter(decode_seq),
                                    prefill_tokens,
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
