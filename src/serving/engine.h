/**
 * @file
 * Event-driven, request-level continuous-batching serving engine over a
 * paged block manager and a pluggable scheduling policy.
 *
 * The engine layers an iteration-level (Orca-style) scheduler on top of
 * the per-step analytic ServingSimulator. Every iteration it admits
 * waiting requests in the policy's order, lets the policy compose the
 * iteration (decode steps over every decode-resident request plus one
 * or more prefill chunks, optionally fused into a single launch),
 * advances the simulated clock by the modeled iteration latency, and
 * retires requests whose outputs are complete.
 *
 * Memory is paged, not reserved: admission only requires that the
 * request's prompt could be cached into the currently free blocks, and
 * blocks are then allocated on demand as tokens are actually cached
 * (vLLM-style). When growth outruns the pool, the engine preempts the
 * most recently admitted resident by eviction — its blocks are freed,
 * its cached tokens are discarded, and it re-queues at the head of the
 * waiting line to recompute from scratch on re-admission. Actual usage
 * therefore never exceeds the budget, without the seed engine's
 * peak-footprint over-reservation.
 *
 * Step costs come from a StepCostStore (serving/step_cost_store.h),
 * which also holds the engine's simulator and model. Engines of the
 * same (system kind, nGpus, execution mode) — a fleet's replicas, a
 * search's probes — share one store, so each distinct step is costed
 * once for all of them.
 *
 * Two driving modes share the same iteration loop:
 *  - run() serves a whole trace to completion (single-replica studies);
 *  - the begin()/submit()/advanceTo()/drain()/finish() session API lets
 *    an external driver (the cluster fleet) interleave many replicas on
 *    one global clock, query queue depth and outstanding tokens for
 *    routing, and import prefilled requests whose cached blocks were
 *    shipped from another replica (prefill/decode disaggregation).
 */

#ifndef PIMBA_SERVING_ENGINE_H
#define PIMBA_SERVING_ENGINE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map> // pimba-lint: allow(node-container) cold lifecycle map
#include <unordered_set> // pimba-lint: allow(node-container) cold preload set
#include <utility>
#include <vector>

#include "obs/timeline.h"
#include "obs/tracer.h"
#include "serving/block_manager.h"
#include "serving/metrics.h"
#include "serving/request.h"
#include "serving/scheduler.h"
#include "serving/step_cost_store.h"

namespace pimba {

/// Observability sinks one engine reports into. All null/zero by
/// default: an engine without observers skips every recording on its
/// iteration path (zero overhead when disabled).
struct EngineObservers
{
    Tracer *tracer = nullptr;   ///< lifecycle + phase event sink
    int pid = 1;                ///< trace "process" of this engine
    TimelineSampler *timeline = nullptr; ///< periodic load sampler
    int timelineTrack = 0;      ///< registered track id on @c timeline
    /// Streaming metrics collector fed one CompletedRequest at a time
    /// (the sample-vector-free aggregation path).
    StreamingMetrics *stream = nullptr;
    /// With @c stream attached: drop per-request record retention too —
    /// ServingReport::completed stays empty and the engine's memory is
    /// bounded by the in-flight set, independent of trace length (the
    /// million-request replay shape). Counters and aggregate metrics
    /// stay exact; percentile summaries come from the stream's
    /// sketches. Ignored without a stream (silently dropping records
    /// with no collector would lose them entirely).
    bool streamOnly = false;
};

/// Scheduler/engine tunables.
struct EngineConfig
{
    int maxBatch = 128;          ///< concurrently admitted request cap
                                 ///  (prefill- and decode-phase combined)
    Tokens prefillChunk{512};    ///< prompt tokens per prefill chunk
    /// HBM budget in bytes across the whole tensor-parallel group; 0
    /// selects memCapacity x nGpus of the system. The block pool is
    /// carved from the budget minus ServingSimulator::weightFootprint(),
    /// which charges the (otherwise tensor-parallel-sharded) embedding
    /// table once per shard — subtracting the whole-model byte count
    /// instead would over-pledge the pool of an nGpus > 1 replica by
    /// nGpus - 1 embedding tables.
    Bytes memoryBudget{0.0};
    /// Cached tokens per KV block of the paged allocator.
    Tokens blockTokens{16};
    /// Per-iteration new-token budget (decode + prefill) for the Sarathi
    /// policy; 0 resolves to maxBatch + prefillChunk so a full decode
    /// batch always leaves one chunk's worth of prefill budget. Decode
    /// is never throttled — see makeScheduler(). The Sarathi policy's
    /// fused-step memo requires maxBatch < 4096 and a resolved budget
    /// < 65536 (checked at engine construction).
    Tokens iterTokenBudget{0};
    SchedulerPolicy policy = SchedulerPolicy::FCFS;
    /// GPU<->PIM execution mode override for this replica. nullopt
    /// inherits the mode of the SystemConfig the simulator was built
    /// with; setting it lets a fleet mix blocked and overlapped replicas
    /// of the same system kind (the override is applied to the
    /// simulator of the replica's StepCostStore, so blocked and
    /// overlapped replicas never share a store).
    std::optional<ExecutionMode> executionMode;
    SloConfig slo;
    /// Priority tier per request class (index = Request::classId,
    /// higher = more important; classes beyond the vector default to
    /// tier 0). Empty — the default — disables tiering entirely: the
    /// queue stays strict FIFO and eviction picks the most recently
    /// admitted resident, byte-identical to the untiered engine. When
    /// set, revealed arrivals queue ahead of strictly lower tiers
    /// (FIFO within a tier) and eviction victimizes the lowest
    /// resident tier first (most recently admitted within it).
    std::vector<int> tierByClass;
};

/// The iteration token budget a config resolves to: the explicit value,
/// or maxBatch + prefillChunk when 0. Shared by validateEngineConfig
/// and the engine constructor so the Sarathi memo bound is always
/// checked against exactly the budget the engine will run with.
Tokens resolvedIterTokenBudget(const EngineConfig &cfg);

/// Validate @p cfg. Returns the empty string when the config is sane,
/// else one actionable message naming the offending field and bound
/// (non-positive batch cap, zero block size, negative memory budget,
/// non-positive SLO targets, Sarathi memo-key overflow). The engine
/// constructor enforces this; the scenario loader calls it up front so
/// JSON mistakes are reported with a file location instead of a fatal
/// abort mid-run.
std::string validateEngineConfig(const EngineConfig &cfg);

/// Outcome of one engine run over a trace.
struct ServingReport
{
    /// Per-request records in completion order. Empty under
    /// EngineObservers::streamOnly — completedRequests below is then
    /// the only (and authoritative) completion count.
    std::vector<CompletedRequest> completed;
    /// Requests retired this run. Always maintained, so counters keep
    /// working when streamOnly drops the per-request records.
    uint64_t completedRequests = 0;
    /// Requests removed by cancel() (deadline timeouts). A session is
    /// fully served when completed + cancelled == submitted.
    uint64_t cancelledRequests = 0;
    /// Tokens computed for later-cancelled requests (prefill chunks
    /// plus locally decoded output) — discarded work, distinct from
    /// recomputedTokens (eviction debt that is eventually redone).
    uint64_t wastedTokens = 0;
    ServingMetrics metrics;
    Seconds makespan;          ///< trace start to last token
    uint64_t iterations = 0;   ///< scheduler iterations executed
    uint64_t generatedTokens = 0; ///< delivered tokens (evictions net out)
    uint64_t prefillChunks = 0;
    uint64_t preemptions = 0;  ///< evictions under memory pressure
    /// Prompt + output tokens discarded by evictions (recompute debt).
    uint64_t recomputedTokens = 0;
    Bytes peakMemory{0.0};     ///< max bytes resident at any iteration
    Bytes memoryBudget{0.0};   ///< the budget the run enforced
    int peakBatch = 0;         ///< max concurrently admitted requests
    Blocks totalBlocks{0};     ///< block-pool size the run was given
    double peakBlockUtil = 0.0; ///< max fraction of the pool allocated
    double avgBlockUtil = 0.0;  ///< iteration-averaged pool allocation
    SchedulerPolicy policy = SchedulerPolicy::FCFS;
    /// Mode every iteration of the run was costed under.
    ExecutionMode executionMode = ExecutionMode::Blocked;
};

/// Request-level continuous-batching engine for one system + model.
class ServingEngine
{
  public:
    /// An engine with a private step-cost store over a copy of @p sim.
    ServingEngine(const ServingSimulator &sim, const ModelConfig &model,
                  EngineConfig cfg = {});

    /// An engine costing its steps in @p costs, which other engines of
    /// the same (system, model, execution mode) may share. A set
    /// cfg.executionMode must equal the store's mode.
    ServingEngine(std::shared_ptr<StepCostStore> costs,
                  EngineConfig cfg = {});

    /// Serve @p trace to completion and report fleet metrics.
    ServingReport run(const std::vector<Request> &trace);

    // ------------------------------------------------- session API
    // The cluster fleet drives many engines on one global clock:
    // begin() opens a session, submit() feeds arrivals (non-decreasing
    // arrival times), advanceTo() runs the iteration loop up to a
    // global timestamp, drain() completes all submitted work, and
    // finish() closes the session and returns the report.

    /// Open a session: reset all run state and size the block pool.
    void begin();

    /// Feed one arrival. Arrival times must be non-decreasing.
    void submit(const Request &r);

    /// Feed one request whose prompt was prefilled on another replica
    /// and whose cached KV/state blocks have been shipped here
    /// (disaggregated serving). @p r.arrival is the time the blocks land
    /// on this replica; admission allocates the whole prompt's blocks up
    /// front and the request enters directly in Decode with its first
    /// output token already delivered upstream, so it must still need at
    /// least one decode step (outputLen >= 2). If memory pressure later
    /// evicts it, the shipped blocks are assumed retained in the
    /// transfer staging buffer: re-admission re-materializes the prompt
    /// without a second link transfer, and only locally decoded tokens
    /// count as recompute debt.
    void submitPrefilled(const Request &r);

    /// Run iterations until the clock reaches @p t or the engine idles
    /// with no submitted arrival due by @p t. An iteration in flight at
    /// @p t completes (and overshoots) — real schedulers do not preempt
    /// a launched step. Returns the clock after advancing.
    Seconds advanceTo(Seconds t);

    /// Serve every submitted request to completion.
    void drain();

    /// Close the session (must be drained) and return its report.
    ServingReport finish();

    /// Cancel request @p id (a deadline fired): remove it from the
    /// pending/waiting queue, or evict it from the running batch and
    /// free its blocks. With @p onlyIfNoFirstToken (a TTFT deadline), a
    /// request that has already delivered its first token is left
    /// alone. Cancelled requests emit no completion record; locally
    /// computed prefill/decode tokens are billed to
    /// ServingReport::wastedTokens and removed from generatedTokens.
    /// Returns false — harmlessly — when the request already completed,
    /// was cancelled earlier, or kept its first token: stale deadline
    /// timers need no bookkeeping on the calendar side.
    bool cancel(uint64_t id, Seconds now, bool onlyIfNoFirstToken);

    // --------------------------------------- router introspection
    /// Simulated clock of the open session.
    Seconds now() const { return clock; }
    /// Earliest time this replica has anything to do: the clock when
    /// work is resident or revealed, the next pending arrival when
    /// idle, +inf when fully drained. The fleet skips advanceTo()
    /// broadcasts to replicas whose next event lies beyond the target
    /// time — a pure no-op there — turning the per-request
    /// O(replicas) advance into O(replicas with due work).
    Seconds nextEventTime() const;
    /// Submitted requests not yet admitted (queued work).
    size_t waitingCount() const;
    /// Requests currently resident in the batch.
    size_t runningCount() const { return running.size(); }
    /// Submitted requests not yet completed (waiting + running).
    size_t queueDepth() const;
    /// Total tokens of work still to serve across queued and resident
    /// requests: unprocessed prompt tokens plus ungenerated output
    /// tokens. The least-outstanding-tokens router's load signal.
    uint64_t outstandingTokens() const;
    /// Priority-weighted unfinished work: sum of (tier + 1) over every
    /// queued and resident request. Routers use it to break load ties
    /// toward the replica hosting less important work. O(1) zero when
    /// tiering is disabled (EngineConfig::tierByClass empty).
    uint64_t tierPressure() const;
    /// Blocks of class @p classId's shared prefix this replica's prefix
    /// cache holds (warmed when a request of the class finishes
    /// prefill). The cache-affinity router's locality signal.
    uint64_t cachedPrefixBlocks(uint32_t classId) const;
    /// Arrival time of the oldest revealed-but-unadmitted request; +inf
    /// when the queue is empty. The autoscaler's head-of-line-wait SLO
    /// signal.
    Seconds oldestQueuedArrival() const;
    /// Requests completed so far in the open session.
    size_t completedCount() const { return report.completedRequests; }
    /// Completion records so far (the fleet polls for hand-offs).
    /// Empty under streamOnly — the disaggregated fleet, which needs
    /// these records to build transfer hand-offs, rejects the
    /// record-free mode up front.
    const std::vector<CompletedRequest> &completedSoFar() const
    {
        return report.completed;
    }

    const EngineConfig &config() const { return cfg; }
    /// The replica's simulator (footprint math for transfer sizing).
    const ServingSimulator &simulator() const
    {
        return costs->simulator();
    }
    /// The step-cost store this engine costs its iterations in.
    const StepCostStore &costStore() const { return *costs; }

    // ------------------------------------------------ observability
    /// Attach (or with a default-constructed argument, detach) the
    /// observability sinks. Persists across begin()/finish() cycles so
    /// a fleet attaches once per replica. When a tracer is attached,
    /// its fixed engine tracks (iterations, gpu, pim, sync) are named
    /// immediately; the caller names the process (pid) itself, since
    /// only it knows the run's label.
    void attachObservers(const EngineObservers &o);
    const EngineObservers &observers() const { return obs; }

  private:
    /// Emit one substep's gpu/pim/sync slices on the phase tracks.
    /// @p start is the substep's start time; under Blocked execution
    /// the phases run back-to-back, under Overlapped gpu and pim start
    /// together and sync follows the longer of the two.
    void tracePhaseSlices(Seconds start, const StepPhases &ph,
                          const std::string &name);
    /// The iteration slice plus its per-substep phase slices, emitted
    /// right after the clock advance (before token application, so the
    /// per-request prefill positions still match what the costing
    /// read). @p prefillMean is the fused step's mean prefill cache
    /// position (ignored for unfused iterations).
    void traceIteration(Seconds start, Seconds dur, int decodeBatch,
                        uint64_t decodeMean, uint64_t prefillTokens,
                        uint64_t prefillMean);

    /// Move pending arrivals with arrival <= clock into the queue.
    void revealArrivals();
    /// One scheduler iteration (admission, planning, costing, retire).
    void iterate();
    /// Priority tier of @p classId (0 when untiered / out of range).
    int tierOf(uint32_t classId) const;
    /// Queue @p r respecting tier order (plain push_back when
    /// untiered; see EngineConfig::tierByClass). Evicted requests
    /// re-queue at the *front* of their tier segment instead.
    void enqueueWaiting(const Request &r, bool atSegmentFront);

    // Shared with every engine of the same cost configuration (see
    // step_cost_store.h); it also holds the simulator and the model.
    std::shared_ptr<StepCostStore> costs;
    EngineConfig cfg;
    std::unique_ptr<Scheduler> sched;
    EngineObservers obs;

    // ------------------------------------------------ session state
    /// Queueing-delay / preemption bookkeeping that must survive
    /// evictions (RequestState is discarded on preemption).
    struct Lifecycle
    {
        Seconds firstAdmitted{-1.0};
        uint64_t preemptions = 0;
    };

    bool active = false;
    Seconds clock{0.0};
    double utilSum = 0.0;
    Bytes weightBytes{0.0};
    uint64_t submitted = 0;
    std::deque<Request> pendingArrivals; ///< submitted, arrival > clock
    std::deque<Request> waiting;         ///< revealed, not yet admitted
    std::vector<RequestState> running;   ///< kept in admission order
    // pimba-lint: allow(node-container) touched on admission only
    std::unordered_set<uint64_t> preloadedIds;
    // pimba-lint: allow(node-container) touched on admit/finish, not per step
    std::unordered_map<uint64_t, Lifecycle> life;
    std::optional<BlockManager> blocks;
    BlockMapper mapper;
    /// Per-class warmed shared-prefix tokens (index = classId, grown on
    /// demand). Warmed when a request of the class completes prefill;
    /// admission then skips the already-cached prefix of later
    /// requests of the same class. Synthetic: the prefix occupies no
    /// blocks of its own in the pool — reuse shows up purely as
    /// skipped prefill compute, which keeps the disabled path (no
    /// Request::prefixLen set anywhere) byte-identical.
    std::vector<uint64_t> prefixCache;
    ServingReport report;

    // Per-iteration scratch, reused across iterations so the inner loop
    // allocates nothing once capacities settle.
    IterationPlan plan;
    std::vector<std::pair<uint64_t, uint64_t>> growScratch;
};

} // namespace pimba

#endif // PIMBA_SERVING_ENGINE_H
