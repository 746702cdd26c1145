/**
 * @file
 * Cluster fleet simulator: N serving-engine replicas behind a pluggable
 * request router, driven by one shared arrival source on one global
 * clock.
 *
 * Replicas are full ServingEngine instances (homogeneous or
 * heterogeneous SystemKind mixes, per-replica EngineConfig). The fleet
 * is a discrete-event simulation with one driver: a pump over one
 * event calendar (core/event_queue.h) holding arrivals, disaggregation
 * hand-offs, and the control plane's warm-up, deadline and scale-tick
 * timers. It pops the earliest event — advancing only the replicas
 * whose cached nextEventTime() says they have due work, snapshotting
 * queue depth and outstanding tokens, and letting the router commit
 * the request. Arrivals are pulled lazily from an ArrivalSource, so a
 * replay-scale run never holds the whole trace. The retired lockstep
 * driver survives as runLockstep(), the reference the pump is proven
 * byte-identical against. Two fleet modes:
 *
 *  - Colocated: every replica both prefills and decodes its own
 *    requests — the classic replicated deployment.
 *  - Disaggregated: the fleet is partitioned into a prefill pool and a
 *    decode pool (DistServe-style). A request prefills on one replica;
 *    its cached KV/state blocks (bytes from the replica simulator's
 *    footprint math) are then shipped to a decode replica over a
 *    modeled interconnect link, and the transfer is charged into the
 *    request's TTFT. Single-token requests complete at the prefill
 *    stage and never cross the link.
 *
 * Two restrictions remain on disaggregated fleets, both because the
 * pump finds hand-offs by polling the prefill replicas' per-request
 * completion records (ServingEngine::completedSoFar()):
 *
 *  - no control plane — validateFleetConfig() rejects it, since the
 *    autoscaler, deadline timers and prefix stamping would need to
 *    warm, drain or cancel across both pools;
 *  - no runStreamed() — it asserts a colocated fleet, since the
 *    record-free streaming mode drops those records. The scenario
 *    runner streams disaggregated cases' fleet-level records through
 *    the sketches after a record-retaining run instead.
 *
 * Runs are deterministic: engines are seeded-trace-driven, router ties
 * break by replica index, PowerOfTwoChoices randomness flows from the
 * router seed, and hand-offs are ordered by (ready time, request id) —
 * the same trace + config always reproduces the same assignment and
 * metrics.
 */

#ifndef PIMBA_CLUSTER_FLEET_H
#define PIMBA_CLUSTER_FLEET_H

#include <cstdint>
#include <vector>

#include "cluster/control_plane.h"
#include "cluster/fleet_metrics.h"
#include "cluster/router.h"
#include "gpu/interconnect.h"
#include "serving/engine.h"
#include "serving/trace.h"

namespace pimba {

/// One replica of the fleet.
struct ReplicaConfig
{
    SystemKind kind = SystemKind::GPU;
    int nGpus = 1; ///< tensor-parallel degree inside the replica
    EngineConfig engine;
};

/// How the fleet splits the request lifecycle across replicas.
enum class FleetMode
{
    Colocated,     ///< every replica prefills and decodes
    Disaggregated, ///< prefill pool -> link transfer -> decode pool
};

/// Full description of one fleet.
struct FleetConfig
{
    std::vector<ReplicaConfig> replicas;
    RouterPolicy router = RouterPolicy::RoundRobin;
    uint32_t routerSeed = 0x5EEDC4A5u; ///< PowerOfTwoChoices sampling
    FleetMode mode = FleetMode::Colocated;
    /// Disaggregated only: the first @c prefillReplicas replicas form
    /// the prefill pool, the rest the decode pool.
    size_t prefillReplicas = 0;
    /// Disaggregated only: the link KV/state blocks ship over.
    LinkConfig link = infinibandLink();
    /// SLO the fleet-level metrics are judged against.
    SloConfig slo;
    /// SLO-aware control plane (autoscaler, priority tiers, deadlines,
    /// prefix affinity; docs/control-plane.md). Disabled by default —
    /// anyEnabled() false keeps every static-fleet report
    /// byte-identical. Colocated fleets only (see the file comment).
    ControlPlaneConfig controlPlane;
};

/// Convenience: @p n identical replicas of one system.
FleetConfig homogeneousFleet(SystemKind kind, size_t n,
                             EngineConfig engine = {});

/// Observability sinks for a fleet run (all null = disabled, zero
/// overhead). Replica k traces as pid @c pidBase + k with a
/// process_name naming its system and pool; @c interconnectPid
/// carries the disaggregation link's ship events (one tid per prefill
/// replica).
struct FleetObservers
{
    Tracer *tracer = nullptr;
    int pidBase = 1;
    int interconnectPid = 0;
    TimelineSampler *timeline = nullptr; ///< one track per replica
    /// Prepended to every replica label — distinguishes the cases of a
    /// multi-case fleet study sharing one tracer/sampler.
    std::string labelPrefix;
};

/// Validate @p cfg. Returns the empty string when the fleet is runnable,
/// else one actionable message (empty fleet, non-positive per-replica
/// tensor-parallel degree, a bad per-replica EngineConfig, an impossible
/// disaggregation split, a zero-bandwidth link). The Fleet constructor
/// enforces this; the scenario loader calls it up front so JSON mistakes
/// are reported with a file location instead of a fatal abort mid-run.
std::string validateFleetConfig(const FleetConfig &cfg);

/// Where one request was served.
struct Assignment
{
    uint64_t requestId = 0;
    size_t replica = 0;     ///< serving (colocated) or prefill replica
    int decodeReplica = -1; ///< disaggregated decode replica, else -1

    bool operator==(const Assignment &) const = default;
};

/// Outcome of one fleet run over a trace.
struct FleetReport
{
    FleetMode mode = FleetMode::Colocated;
    RouterPolicy router = RouterPolicy::RoundRobin;
    std::vector<ServingReport> replicas; ///< per replica, replica order
    std::vector<Assignment> assignments; ///< in routing order
    /// Fleet-level per-request records: end-to-end latencies with the
    /// transfer charged into TTFT, ordered by completion time.
    std::vector<CompletedRequest> completed;
    ServingMetrics metrics; ///< over the fleet-level records
    Seconds makespan;       ///< trace start to last token, fleet-wide
    LoadStats load;
    TransferStats transfer; ///< all-zero for a colocated fleet
    /// Autoscaler trajectory, replica-second bill, warm-up spans and
    /// cancellation totals. Default (enabled = false) when the control
    /// plane is off.
    ControlPlaneReport controlPlane;
};

/// N-replica fleet simulator for one model.
class Fleet
{
  public:
    /// A fleet whose replicas share step-cost stores among themselves
    /// only: one per distinct (kind, nGpus, execution mode).
    Fleet(const ModelConfig &model, FleetConfig cfg);

    /// A fleet taking its replicas' stores from @p stores (and its
    /// model from stores.model()), so a search that builds many probe
    /// fleets costs each step once across all of them.
    Fleet(StepCostStores &stores, FleetConfig cfg);

    /// Serve @p trace to completion across the fleet. Reusable: every
    /// run re-seeds the router and resets every replica. Sorts a copy
    /// by arrival and feeds it through the event calendar.
    FleetReport run(const std::vector<Request> &trace);

    /// Event-driven run over a lazy source (requests must come in
    /// non-decreasing arrival order — what ArrivalStream and
    /// TraceFileReader produce). The trace is never materialized; with
    /// per-request records retained, the report is still O(requests).
    FleetReport run(ArrivalSource &arrivals);

    /// Bounded-memory replay: like run(ArrivalSource&), but every
    /// completion folds into @p stream instead of being retained, so
    /// peak memory is O(in-flight requests + sketch buckets),
    /// independent of trace length. The report's completed /
    /// assignments vectors stay empty; metrics and makespan come from
    /// the stream (percentiles are sketch estimates, counters exact).
    /// Colocated fleets only — the pump polls a disaggregated fleet's
    /// per-request completion records to build transfer hand-offs.
    FleetReport runStreamed(ArrivalSource &arrivals,
                            StreamingMetrics &stream);

    /// The pre-event-core lockstep driver, kept as the debug reference
    /// the event pump is proven byte-identical against
    /// (tests/cluster/event_equivalence_test.cpp). Not for new
    /// callers: it holds the whole trace and advances eagerly.
    FleetReport runLockstep(const std::vector<Request> &trace);

    const FleetConfig &config() const { return cfg; }
    size_t replicaCount() const { return engines.size(); }
    /// Replica @p i's engine.
    const ServingEngine &replica(size_t i) const { return engines[i]; }

    /// Attach (or with a default-constructed argument, detach) the
    /// observability sinks: wires every replica engine's observers,
    /// names the trace processes, and registers one timeline track per
    /// replica. Call before run(); persists across runs.
    void attachObservers(const FleetObservers &o);
    /// "replica k (<system> xN[, prefill|decode])" — the trace
    /// process / timeline track label of replica @p i.
    std::string replicaLabel(size_t i) const;

  private:
    /// Validate the config and build one engine per replica, each on
    /// its (kind, nGpus, execution mode) store from @p stores.
    void buildReplicas(StepCostStores &stores);

    /// The one event-calendar driver behind run() and runStreamed()
    /// (@p stream null: per-request records retained).
    FleetReport pump(ArrivalSource &arrivals, StreamingMetrics *stream);

    ModelConfig model;
    FleetConfig cfg;
    std::vector<ServingEngine> engines;
    FleetObservers obs;
};

} // namespace pimba

#endif // PIMBA_CLUSTER_FLEET_H
