/**
 * @file
 * Step-cost store: the memoized cost of every batched step of one cost
 * configuration — one system (kind, tensor-parallel degree, resolved
 * GPU<->PIM execution mode) serving one model.
 *
 * A step's cost is a pure function of that configuration and of the
 * step's memo key (step_memo.h), so every engine of the configuration
 * can share one store: replica k of a 128-replica fleet hits the
 * entries replica 0 filled, and every probe of a saturation or planner
 * search reuses the steps the earlier probes costed. The store also
 * owns the one ServingSimulator (with the execution-mode override
 * already applied), so the PIM kernel-shape caches are shared too.
 *
 * Sharing never changes a number: a hit returns exactly the value the
 * miss computed, whichever engine asked first.
 *
 * Scope: a store belongs to one fleet or one search (StepCostStores),
 * never to the process. It is not thread-safe — the memos and the
 * simulator's kernel caches mutate on every miss — so sweep workers,
 * which run whole scenarios on separate threads, each build their own.
 */

#ifndef PIMBA_SERVING_STEP_COST_STORE_H
#define PIMBA_SERVING_STEP_COST_STORE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/flat_table.h"
#include "models/model_config.h"
#include "sim/serving_sim.h"

namespace pimba {

/// GPU/PIM/sync phase split of one memoized step, cached for the
/// tracer (raw seconds like the step-cost memos; populated only while
/// a tracer is attached, so the disabled path never computes it).
struct StepPhases
{
    double gpu = 0.0;
    double pim = 0.0;
    double sync = 0.0;
};

/// Lookups and misses of one memo. Every miss inserts its key, so
/// misses is also the memo's entry count.
struct MemoCounts
{
    uint64_t lookups = 0;
    uint64_t misses = 0;
};

/// Deterministic work counters of a store's six memos: the same runs
/// always give the same counts, whatever the host.
struct MemoStats
{
    MemoCounts decode;
    MemoCounts prefill;
    MemoCounts mixed;
    MemoCounts decodePhases;
    MemoCounts prefillPhases;
    MemoCounts mixedPhases;
};

/// Memoized step costs of one (system, model, execution mode).
class StepCostStore
{
  public:
    /// Cost steps of @p model on a copy of @p sim, switched to @p mode
    /// when set (else the simulator's own mode).
    StepCostStore(const ServingSimulator &sim, const ModelConfig &model,
                  std::optional<ExecutionMode> mode = {});

    /// Decode-step latency, memoized by (batch, cache-length bucket).
    double decodeSeconds(int batch, uint64_t mean_seq);
    /// Prefill-chunk latency, memoized by (chunk, position bucket).
    double prefillSeconds(uint64_t chunk, uint64_t seq_pos);
    /// Fused-iteration latency, memoized like the two above.
    double mixedSeconds(int decode_batch, uint64_t decode_seq,
                        uint64_t prefill_tokens, uint64_t prefill_pos);

    // GPU/PIM/sync splits of the same memoized steps, in parallel
    // tables keyed identically to the seconds memos. Touched only from
    // the tracer emission path, so the disabled hot path never pays
    // for the extra lookups (and the seconds memos stay byte-for-byte
    // what the untraced run computes).
    StepPhases decodePhases(int batch, uint64_t mean_seq);
    StepPhases prefillPhases(uint64_t chunk, uint64_t seq_pos);
    StepPhases mixedPhases(int decode_batch, uint64_t decode_seq,
                           uint64_t prefill_tokens, uint64_t prefill_pos);

    const ServingSimulator &simulator() const { return sim; }
    const ModelConfig &model() const { return modelCfg; }
    const MemoStats &stats() const { return counts; }

  private:
    ServingSimulator sim;
    ModelConfig modelCfg;
    // Step-cost memos: packed (batch, bucket) keys (see step_memo.h) to
    // modeled seconds, in flat open-addressing tables — the memo lookup
    // is the innermost operation of every sweep, and the node-based
    // unordered_map's hash + pointer chase dominated it.
    FlatTable<double> decodeCache;
    FlatTable<double> prefillCache;
    FlatTable<double> mixedCache;
    // Phase-split memos (tracing only; see decodePhases).
    FlatTable<StepPhases> decodePhaseCache;
    FlatTable<StepPhases> prefillPhaseCache;
    FlatTable<StepPhases> mixedPhaseCache;
    MemoStats counts;
};

/**
 * The stores of one model, one per (system kind, tensor-parallel
 * degree, resolved execution mode) — everything besides the model
 * that reaches a step cost, since a replica's system is
 * makeSystem(kind, nGpus). A fleet owns one for its replicas; the
 * saturation and planner searches own one across all their probes.
 */
class StepCostStores
{
  public:
    explicit StepCostStores(const ModelConfig &model) : modelCfg(model) {}

    /// The store of (@p kind, @p nGpus) under @p mode, or under the
    /// system's default mode when unset; built on first request.
    std::shared_ptr<StepCostStore> get(SystemKind kind, int nGpus,
                                       std::optional<ExecutionMode> mode);

    const ModelConfig &model() const { return modelCfg; }

  private:
    struct Entry
    {
        SystemKind kind;
        int nGpus;
        ExecutionMode mode;
        std::shared_ptr<StepCostStore> store;
    };

    ModelConfig modelCfg;
    std::vector<Entry> stores; ///< a handful at most: linear lookup
};

} // namespace pimba

#endif // PIMBA_SERVING_STEP_COST_STORE_H
