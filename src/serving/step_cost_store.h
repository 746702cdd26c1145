/**
 * @file
 * Step-cost store: the memoized cost of every batched step of one cost
 * configuration — one system (kind, tensor-parallel degree, resolved
 * GPU<->PIM execution mode) serving one model.
 *
 * The store keeps one memo for every step kind. A decode step, a
 * prefill chunk and a fused iteration each reduce, after bucketing, to
 * the one ServingSimulator::generationStep call they are costed as, and
 * that call is the key (step_memo.h), so a prefill chunk and a decode
 * step at the same (tokens, position) share an entry. An entry holds
 * the step's seconds and its GPU/PIM/sync split, all from the one model
 * walk of its miss, so tracing adds no misses.
 *
 * A step's cost is a pure function of that configuration and of the
 * step's memo key, so every engine of the configuration can share one
 * store: replica k of a 128-replica fleet hits the entries replica 0
 * filled, and every probe of a saturation or planner search reuses the
 * steps the earlier probes costed. The store also owns the one
 * ServingSimulator (with the execution-mode override already applied),
 * so the PIM kernel-shape caches are shared too.
 *
 * Sharing never changes a number: a hit returns exactly the value the
 * miss computed, whichever engine asked first.
 *
 * Scope: a store belongs to one fleet or one search (StepCostStores),
 * never to the process. It is not thread-safe — the memo and the
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

/// Modeled cost of one memoized step: its latency plus the GPU/PIM/sync
/// split the tracer draws, all four from the one StepResult a miss
/// computes.
struct StepCost
{
    Seconds seconds; ///< step latency: what the engine clock advances
    Seconds gpu;     ///< GPU-stream work
    Seconds pim;     ///< PIM kernel work
    Seconds sync;    ///< GPU<->PIM synchronization
};

/// Lookups and misses of a store's memo: deterministic work counters,
/// the same for the same runs whatever the host. Every miss inserts its
/// key, so misses is also the memo's entry count.
struct MemoCounts
{
    uint64_t lookups = 0;
    uint64_t misses = 0;
};

/// Memoized step costs of one (system, model, execution mode).
class StepCostStore
{
  public:
    /// Cost steps of @p model on a copy of @p sim, switched to @p mode
    /// when set (else the simulator's own mode).
    StepCostStore(const ServingSimulator &sim, const ModelConfig &model,
                  std::optional<ExecutionMode> mode = {});

    // Each returns a copy of the memo entry: a FlatTable reference
    // would dangle after the next insert that grows the table.

    /// Decode-step cost at the center of the mean cache length's
    /// bucket.
    StepCost decodeStep(int batch, uint64_t mean_seq);
    /// Prefill-chunk cost at prefillPoint() of the base position's
    /// bucket center.
    StepCost prefillStep(uint64_t chunk, uint64_t seq_pos);
    /// Fused-iteration cost at mixedPoint() of both means' bucket
    /// centers.
    StepCost mixedStep(int decode_batch, uint64_t decode_seq,
                       uint64_t prefill_tokens, uint64_t prefill_pos);

    const ServingSimulator &simulator() const { return sim; }
    const ModelConfig &model() const { return modelCfg; }
    const MemoCounts &stats() const { return counts; }

  private:
    /// The memoized generationStep at @p p.
    StepCost step(StepPoint p);

    ServingSimulator sim;
    ModelConfig modelCfg;
    // The step-cost memo: packed (tokens, position) keys (see
    // step_memo.h) to step costs, in a flat open-addressing table — the
    // memo lookup is the innermost operation of every sweep, and the
    // node-based unordered_map's hash + pointer chase dominated it.
    FlatTable<StepCost> cache;
    MemoCounts counts;
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
