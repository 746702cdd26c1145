/**
 * @file
 * SLO-aware fleet control plane (docs/control-plane.md): a replica
 * autoscaler driven by queue-depth / head-of-line-wait signals sampled
 * on the fleet's event calendar, priority tiers layered over the
 * request classes, per-class TTFT/total deadlines that cancel queued or
 * evict running requests, and per-class synthetic prefix ids that feed
 * the cache-affinity router.
 *
 * Everything here is strictly opt-in: a default-constructed
 * ControlPlaneConfig reports anyEnabled() == false, the fleet's event
 * pump then schedules no timer and routes over every replica, and its
 * reports are byte-for-byte those of a static fleet. When any feature
 * is on, the same pump also carries warm-up completions, deadline
 * timers and autoscaler ticks on its calendar, and this class owns the
 * replica activation state machine:
 *
 *   Inactive --scaleUp(warm-up)--> Warming --timer--> Active
 *   Active --scaleDown--> Draining (keeps serving its backlog, gets no
 *   new routes) --scaleUp while still busy--> Active (drain cancelled,
 *   no new warm-up; an idle drained replica has been released and pays
 *   the full warm-up again)
 *
 * Replica-seconds are billed from warm-up start (spinning a replica up
 * costs its warm-up time too) until drain, plus each drained replica's
 * lazily-served backlog tail; replicas still active at the end bill to
 * the run's makespan. The trajectory and warm-up spans are recorded for
 * the property-test suite.
 */

#ifndef PIMBA_CLUSTER_CONTROL_PLANE_H
#define PIMBA_CLUSTER_CONTROL_PLANE_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/units.h"

namespace pimba {

class ServingEngine;

/** Per-class cancellation deadlines, both relative to arrival. +inf
 *  (the default) disables the respective timer. */
struct ClassDeadline
{
    /** Cancel if the first output token has not been delivered by
     *  arrival + ttft (queued requests are dropped, running ones
     *  evicted; a request whose first token is out is left alone). */
    Seconds ttft{std::numeric_limits<double>::infinity()};
    /** Cancel outright if not completed by arrival + total. */
    Seconds total{std::numeric_limits<double>::infinity()};

    bool any() const
    {
        return ttft < Seconds(std::numeric_limits<double>::infinity()) ||
               total < Seconds(std::numeric_limits<double>::infinity());
    }
};

/** Autoscaler policy knobs. Disabled by default. */
struct AutoscalerConfig
{
    bool enabled = false;
    size_t minReplicas = 1;
    /** 0 resolves to the fleet size. */
    size_t maxReplicas = 0;
    /** Replicas routable at t = 0; 0 resolves to minReplicas. */
    size_t initialReplicas = 0;
    /** Signal sampling period (one calendar tick per interval). */
    Seconds interval{5.0};
    /** Scale up when the mean queue depth across routable replicas
     *  reaches this. */
    double scaleUpQueueDepth = 8.0;
    /** Scale down when the mean queue depth falls to this (0 disables
     *  scale-down — the monotone-trajectory property-test mode). */
    double scaleDownQueueDepth = 1.0;
    /** SLO-attainment signal: also scale up when the oldest queued
     *  request has waited at least this long (0 disables). */
    Seconds scaleUpWait{0.0};
    /** Time between a scale-up decision and the replica accepting
     *  work. The replica is billed from the decision instant. */
    Seconds warmup{2.0};
};

/** Fleet-level control-plane configuration (scenario key
 *  "controlPlane" plus the fleet-level "priorities"/"deadlines"
 *  arrays; see docs/control-plane.md). */
struct ControlPlaneConfig
{
    AutoscalerConfig autoscaler;
    /** Priority tier per request class (higher = more important);
     *  propagated into every replica engine's EngineConfig. */
    std::vector<int> tierByClass;
    /** Cancellation deadlines per request class. */
    std::vector<ClassDeadline> deadlines;
    /** Synthetic shared-prefix length (tokens) per request class; the
     *  control plane stamps Request::prefixLen from it so engines skip
     *  warm prefixes and the cache-affinity router can score replicas
     *  by locality. */
    std::vector<uint64_t> prefixTokensByClass;

    /** Any feature on? False for a default-constructed config — the
     *  fleet's pump then schedules no control-plane timer and leaves
     *  FleetReport::controlPlane default-constructed. */
    bool anyEnabled() const
    {
        return autoscaler.enabled || !tierByClass.empty() ||
               !deadlines.empty() || !prefixTokensByClass.empty();
    }

    int tierOf(uint32_t classId) const
    {
        return classId < tierByClass.size() ? tierByClass[classId] : 0;
    }

    uint64_t prefixTokensOf(uint32_t classId) const
    {
        return classId < prefixTokensByClass.size()
                   ? prefixTokensByClass[classId]
                   : 0;
    }

    /** Deadlines of @p classId; nullptr when none are configured. */
    const ClassDeadline *deadlineOf(uint32_t classId) const
    {
        return classId < deadlines.size() && deadlines[classId].any()
                   ? &deadlines[classId]
                   : nullptr;
    }
};

/** Validate @p cfg against a fleet of @p fleetSize replicas. Returns
 *  the empty string when sane, else one actionable message. */
std::string validateControlPlaneConfig(const ControlPlaneConfig &cfg,
                                       size_t fleetSize);

/** One point of the replica-count trajectory: after the change at
 *  @c time, @c provisioned replicas (routable + warming) are billed. */
struct ScaleEvent
{
    Seconds time{0.0};
    size_t provisioned = 0;
};

/** One warm-up interval: replica @c replica was provisioned at
 *  @c start and accepted no work before @c ready. */
struct WarmupSpan
{
    size_t replica = 0;
    Seconds start{0.0};
    Seconds ready{0.0};
};

/** Control-plane outcome folded into FleetReport. */
struct ControlPlaneReport
{
    bool enabled = false;
    /** Provisioned-replica trajectory, starting with the t = 0 point. */
    std::vector<ScaleEvent> trajectory;
    /** Replica-seconds billed (the autoscaler's cost metric). */
    Seconds replicaSeconds{0.0};
    /** Warm-up spans, for the no-admission-while-warming invariant. */
    std::vector<WarmupSpan> warmups;
    uint64_t cancelledRequests = 0;
    uint64_t wastedTokens = 0;
};

/**
 * Replica activation state machine + replica-second billing. Owned by
 * the fleet's event pump; the signal evaluation and calendar pumping
 * stay in the fleet, this class answers "who is routable" and records
 * the audit trail the property tests replay.
 */
class ControlPlane
{
  public:
    ControlPlane(const ControlPlaneConfig &cfg, size_t fleetSize);

    /** Replica indices currently accepting routed work (ascending). */
    const std::vector<size_t> &pool() const { return routable; }

    /** Routable + warming — the replicas currently being billed. */
    size_t provisioned() const { return routable.size() + warming; }

    /** Replica indices in the Draining state (ascending) — still
     *  serving their backlog, so the fleet keeps advancing them. */
    std::vector<size_t> drainingReplicas() const;

    bool canScaleUp() const { return provisioned() < maxReplicas; }
    bool canScaleDown() const
    {
        return routable.size() > minReplicas;
    }

    struct ScaleUp
    {
        size_t replica = 0;
        Seconds ready{0.0}; ///< when the replica becomes routable
        bool instant = false; ///< drain cancelled, no warm-up needed
    };

    /** Provision one more replica at @p now. A draining replica that
     *  still has work (per @p engines) reactivates instantly; otherwise
     *  the lowest-index cold replica starts its warm-up and the caller
     *  posts a calendar entry for @c ready. Requires canScaleUp(). */
    ScaleUp scaleUp(Seconds now,
                    const std::vector<ServingEngine> &engines);

    /** Warm-up timer fired: @p replica joins the routable pool. */
    void warmupDone(size_t replica, Seconds now);

    /** Drain the highest-index routable replica at @p now; it keeps
     *  serving queued work but receives no new routes. Returns its
     *  index. Requires canScaleDown(). */
    size_t scaleDown(Seconds now);

    /** Close the books at @p makespan: active/warming replicas bill to
     *  the makespan, drained replicas bill their lazily-served backlog
     *  tail (each engine's final clock). Call once, after the engines
     *  have drained. */
    void finalize(Seconds makespan,
                  const std::vector<ServingEngine> &engines);

    const ControlPlaneReport &report() const { return rep; }

  private:
    enum class State
    {
        Inactive, ///< never provisioned (cold)
        Warming,  ///< provisioned, warm-up timer pending
        Active,   ///< routable
        Draining, ///< deprovisioned, serving out its backlog
    };

    void rebuildPool();
    void record(Seconds time);

    ControlPlaneConfig cfg;
    size_t minReplicas = 1;
    size_t maxReplicas = 1;
    std::vector<State> state;
    std::vector<Seconds> billedFrom; ///< per-replica open bill start
    std::vector<Seconds> drainedAt;  ///< last drain instant (Draining)
    std::vector<size_t> routable;
    size_t warming = 0;
    ControlPlaneReport rep;
};

} // namespace pimba

#endif // PIMBA_CLUSTER_CONTROL_PLANE_H
