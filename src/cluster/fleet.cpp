#include "cluster/fleet.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <unordered_map> // pimba-lint: allow(node-container) per-run handoff bookkeeping

#include "core/event_queue.h"
#include "core/logging.h"

namespace pimba {

namespace {

constexpr Seconds kInf{std::numeric_limits<double>::infinity()};

/** Load snapshots of the replicas in @p pool, in pool order, into the
 *  caller's reused buffer (one routing decision per request makes this
 *  a per-request allocation otherwise). */
void
snapshotPool(const std::vector<ServingEngine> &engines,
             const std::vector<size_t> &pool,
             std::vector<ReplicaSnapshot> &snap,
             const Request *req = nullptr)
{
    snap.clear();
    snap.reserve(pool.size());
    for (size_t i : pool) {
        ReplicaSnapshot s;
        s.queueDepth = engines[i].queueDepth();
        s.outstandingTokens = engines[i].outstandingTokens();
        s.tierPressure = engines[i].tierPressure();
        // The locality signal is per arriving request (its class's
        // prefix); legacy call sites route without a request and leave
        // it zero, as do requests without a prefix id.
        if (req && req->prefixLen > 0)
            s.cachedPrefixBlocks =
                engines[i].cachedPrefixBlocks(req->classId);
        snap.push_back(s);
    }
}

/**
 * Cached per-replica next-event times gating the fleet's advanceTo
 * broadcasts. The cache is refreshed after every state-changing engine
 * call (advance/submit/drain), so a cached time later than the target
 * proves the replica is idle until after it — advanceTo would be a pure
 * no-op — and the broadcast skips it. This turns the former
 * O(requests x replicas) advance loop into O(requests x replicas with
 * due work) while leaving every engine in exactly the state the eager
 * broadcast produced (routing snapshots, and therefore reports, are
 * byte-identical).
 */
class AdvanceGate
{
  public:
    explicit AdvanceGate(std::vector<ServingEngine> &engines_)
        : engines(engines_), nextEvent(engines_.size(), Seconds(0.0))
    {}

    /** advanceTo(@p t) on every pool replica not provably idle past t. */
    void
    advancePool(const std::vector<size_t> &pool, Seconds t)
    {
        for (size_t i : pool) {
            if (nextEvent[i] > t)
                continue;
            engines[i].advanceTo(t);
            nextEvent[i] = engines[i].nextEventTime();
        }
    }

    /** advanceTo(@p t) on replica @p i alone (deadline timers target
     *  the one replica the request was routed to). */
    void
    advanceOne(size_t i, Seconds t)
    {
        if (nextEvent[i] > t)
            return;
        engines[i].advanceTo(t);
        nextEvent[i] = engines[i].nextEventTime();
    }

    /** Refresh replica @p i's cache after a submit/drain on it. */
    void refresh(size_t i) { nextEvent[i] = engines[i].nextEventTime(); }

  private:
    std::vector<ServingEngine> &engines;
    std::vector<Seconds> nextEvent;
};

/** Completion instant of a fleet-level record. */
Seconds
finishTime(const CompletedRequest &c)
{
    return c.req.arrival + c.latency;
}

/** Order fleet records by completion time (ties by id) — makes the
 *  fleet-level list deterministic regardless of replica merge order. */
void
sortByCompletion(std::vector<CompletedRequest> &completed)
{
    std::stable_sort(completed.begin(), completed.end(),
                     [](const CompletedRequest &a,
                        const CompletedRequest &b) {
                         Seconds fa = finishTime(a), fb = finishTime(b);
                         if (fa != fb)
                             return fa < fb;
                         return a.req.id < b.req.id;
                     });
}

/** One prefill-complete request waiting for its blocks to land. */
struct Handoff
{
    Seconds ready{0.0};        ///< transfer completes on the link
    Request req;               ///< the original request
    Seconds prefillFinish{0.0};
    Seconds linkSeconds{0.0};
    Seconds prefillQueueing{0.0};
    uint64_t prefillPreemptions = 0;
};

/** Min-first by (ready, id): deterministic hand-off order (the
 *  lockstep reference driver's queue; the event pump encodes the same
 *  order in its calendar keys). */
struct HandoffLater
{
    bool
    operator()(const Handoff &a, const Handoff &b) const
    {
        if (a.ready != b.ready)
            return a.ready > b.ready;
        return a.req.id > b.req.id;
    }
};

/// Fleet calendar event kinds. The enumerator value is the calendar
/// class, so at one instant: a warm-up completion makes its replica
/// routable before a same-time arrival routes; an arrival dispatches
/// before a hand-off (the lockstep loop's `arrival <= handoff` rule)
/// and before any deadline timer (a request admitted at its exact
/// deadline instant still gets its chance); autoscaler ticks observe
/// the settled state last.
enum class EventKind : uint32_t
{
    Warmup,   ///< a scaled-up replica's warm-up timer fired
    Arrival,  ///< one trace arrival
    Handoff,  ///< a prefill's KV/state blocks landed (disaggregated)
    Deadline, ///< a request's TTFT or total deadline
    ScaleTick ///< autoscaler signal-sampling tick
};

/** Calendar payload of the fleet pump. */
struct FleetEvent
{
    EventKind kind = EventKind::Arrival;
    Request req;           ///< Arrival: the request; Deadline: its id
    size_t replica = 0;    ///< Warmup / Deadline: the target replica
    bool ttftOnly = false; ///< Deadline: TTFT (vs total) semantics
    Handoff handoff;       ///< Handoff payload
};

/**
 * Shared fleet-report epilogue: order the fleet-level records, derive
 * the makespan from the last completion, and fill the aggregate
 * metrics and load stats. The caller has already populated
 * report.replicas and report.completed.
 */
void
finalizeReport(FleetReport &report, const SloConfig &slo)
{
    sortByCompletion(report.completed);
    report.makespan = report.completed.empty()
                          ? Seconds(0.0)
                          : finishTime(report.completed.back());
    report.metrics =
        computeMetrics(report.completed, report.makespan, slo);
    report.load = computeLoadStats(report.replicas);
}

/**
 * Fleet-level records of a colocated run: the merged replica records,
 * computed on directly (aggregateMetrics would merge the same vectors
 * a second time; it remains the API for callers holding only
 * per-replica reports).
 */
void
mergeReplicaRecords(FleetReport &report, const SloConfig &slo)
{
    for (const ServingReport &rep : report.replicas)
        report.completed.insert(report.completed.end(),
                                rep.completed.begin(),
                                rep.completed.end());
    finalizeReport(report, slo);
}

/**
 * Prefill -> decode hand-off bookkeeping of one disaggregated run,
 * shared by the calendar pump and the lockstep reference so both cost
 * transfers and synthesize records the same way. The first
 * @c prefillReplicas replicas form the prefill pool, the rest the
 * decode pool; constructed with 0 (a colocated fleet) the prefill pool
 * is empty and every prefill-side call is a no-op.
 */
class Disaggregation
{
  public:
    Disaggregation(std::vector<ServingEngine> &engines_, AdvanceGate &gate_,
                   const ModelConfig &model_, const FleetConfig &cfg,
                   const FleetObservers &obs_, size_t prefillReplicas)
        : engines(engines_), gate(gate_), model(model_), obs(obs_),
          // Decouple the two stages' sampling streams but keep both
          // seeded.
          decodeRouter(makeRouter(cfg.router, cfg.routerSeed ^ 0x9E3779B9u)),
          link(cfg.link), polled(engines_.size(), 0)
    {
        for (size_t i = 0; i < engines.size(); ++i)
            (i < prefillReplicas ? prefills : decodes).push_back(i);
    }

    const std::vector<size_t> &prefillPool() const { return prefills; }

    bool
    prefillBusy() const
    {
        for (size_t i : prefills)
            if (engines[i].queueDepth() > 0)
                return true;
        return false;
    }

    /** Submit arrival @p r's prefill stage to replica @p pick (it emits
     *  the first token only); @p assignment is its routing-order slot. */
    void
    admit(const Request &r, size_t pick, size_t assignment)
    {
        PIMBA_ASSERT(originals.emplace(r.id, r).second,
                     "duplicate request id ", r.id, " in trace");
        assignmentIdx.emplace(r.id, assignment);
        Request pr = r;
        pr.outputLen = 1;
        engines[pick].submit(pr);
    }

    /**
     * Advance the prefill pool to @p t (+inf runs it out) and turn its
     * fresh completions into hand-offs, each passed to @p schedule. The
     * shipped bytes are the request's cached state + KV at prompt + 1
     * tokens, in the *prefill* replica's storage formats.
     */
    template <typename Schedule>
    void
    poll(Seconds t, TransferStats &transfer, Schedule &&schedule)
    {
        gate.advancePool(prefills, t);
        for (size_t i : prefills) {
            const auto &done = engines[i].completedSoFar();
            for (size_t k = polled[i]; k < done.size(); ++k) {
                const CompletedRequest &c = done[k];
                const Request &orig = originals.at(c.req.id);
                if (orig.outputLen == 1) {
                    // Fully served by the prefill stage; never ships.
                    prefillOnly.push_back(c);
                    continue;
                }
                MemoryUsage mem = engines[i].simulator().memoryUsage(
                    model, 1, orig.inputLen + 1);
                Bytes bytes = mem.state + mem.kvCache;
                LinkCost cost = link.transfer(bytes);
                Handoff h;
                h.prefillFinish = finishTime(c);
                h.ready = h.prefillFinish + cost.seconds;
                h.req = orig;
                h.linkSeconds = cost.seconds;
                h.prefillQueueing = c.queueing;
                h.prefillPreemptions = c.preemptions;
                schedule(h);
                if (obs.tracer)
                    // Slice on the interconnect process, one lane per
                    // source replica: blocks leave when the prefill
                    // finishes and land cost.seconds later.
                    obs.tracer->complete(
                        obs.interconnectPid, static_cast<int64_t>(i) + 1,
                        h.prefillFinish, cost.seconds,
                        "ship req " + std::to_string(orig.id),
                        "interconnect",
                        {{"bytes", bytes.value()},
                         {"seconds", cost.seconds.value()}});
                // A request with no cached state or KV bytes (possible
                // only for degenerate models) ships nothing: it is a
                // hand-off, not a transfer, and must not count into the
                // transfer-overhead breakdown.
                if (bytes > Bytes(0.0)) {
                    ++transfer.transfers;
                    transfer.totalBytes += bytes;
                    transfer.totalSeconds += cost.seconds;
                    transfer.totalEnergyJ += cost.energyJ;
                }
            }
            polled[i] = done.size();
        }
    }

    /** @p h's blocks landed: route it onto the decode pool, whose clock
     *  for the request starts at the landing instant. */
    void
    land(const Handoff &h, std::vector<Assignment> &assignments)
    {
        gate.advancePool(decodes, h.ready);
        snapshotPool(engines, decodes, snap);
        size_t pick = decodes[decodeRouter->route(snap, h.req)];
        Request dr = h.req;
        dr.arrival = h.ready;
        engines[pick].submitPrefilled(dr);
        gate.refresh(pick);
        assignments[assignmentIdx.at(h.req.id)].decodeReplica =
            static_cast<int>(pick);
        handoffMeta.emplace(h.req.id, h);
    }

    /**
     * Synthesize the fleet-level records from the finished replica
     * reports: TTFT is prefill + transfer (the first token is not
     * servable until its blocks land on the decode replica),
     * decode-stage queueing and compute land in TPOT.
     */
    void
    synthesize(FleetReport &report, const SloConfig &slo) const
    {
        double shareSum = 0.0;
        std::vector<double> transferSeconds;
        transferSeconds.reserve(handoffMeta.size());
        for (size_t i : decodes) {
            for (const CompletedRequest &c :
                 report.replicas[i].completed) {
                const Handoff &h = handoffMeta.at(c.req.id);
                const Request &orig = originals.at(c.req.id);
                CompletedRequest out;
                out.req = orig;
                out.ttft = h.prefillFinish + h.linkSeconds - orig.arrival;
                out.latency = finishTime(c) - orig.arrival;
                out.tpot = (out.latency - out.ttft) /
                           static_cast<double>(orig.outputLen - 1);
                out.queueing = h.prefillQueueing;
                out.preemptions = h.prefillPreemptions + c.preemptions;
                report.completed.push_back(out);
                shareSum += h.linkSeconds / out.ttft;
                transferSeconds.push_back(h.linkSeconds.value());
            }
        }
        report.completed.insert(report.completed.end(),
                                prefillOnly.begin(), prefillOnly.end());
        finalizeReport(report, slo);
        report.transfer.perTransfer = summarizeLatency(transferSeconds);
        report.transfer.meanTtftShare =
            transferSeconds.empty()
                ? 0.0
                : shareSum / static_cast<double>(transferSeconds.size());
    }

  private:
    std::vector<ServingEngine> &engines;
    AdvanceGate &gate;
    const ModelConfig &model;
    const FleetObservers &obs;
    std::unique_ptr<Router> decodeRouter;
    const LinkModel link;
    std::vector<size_t> prefills, decodes;
    std::vector<ReplicaSnapshot> snap;
    // pimba-lint: allow(node-container) touched once per request, not per step
    std::unordered_map<uint64_t, Request> originals;
    std::unordered_map<uint64_t, size_t> assignmentIdx; // pimba-lint: allow(node-container) ditto
    std::unordered_map<uint64_t, Handoff> handoffMeta; // pimba-lint: allow(node-container) ditto
    std::vector<CompletedRequest> prefillOnly; // single-token requests
    std::vector<size_t> polled; ///< per replica: completions consumed
};

} // namespace

FleetConfig
homogeneousFleet(SystemKind kind, size_t n, EngineConfig engine)
{
    FleetConfig cfg;
    cfg.replicas.assign(n, ReplicaConfig{kind, 1, engine});
    return cfg;
}

std::string
validateFleetConfig(const FleetConfig &cfg)
{
    if (cfg.replicas.empty())
        return "fleet: needs at least 1 replica (empty fleets serve "
               "nothing)";
    for (size_t i = 0; i < cfg.replicas.size(); ++i) {
        const ReplicaConfig &rc = cfg.replicas[i];
        if (rc.nGpus < 1)
            return "fleet: replica " + std::to_string(i) +
                   ": nGpus must be >= 1, got " +
                   std::to_string(rc.nGpus);
        if (std::string err = validateEngineConfig(rc.engine);
            !err.empty())
            return "fleet: replica " + std::to_string(i) + ": " + err;
    }
    if (cfg.mode == FleetMode::Disaggregated) {
        if (cfg.prefillReplicas < 1 ||
            cfg.prefillReplicas >= cfg.replicas.size())
            return "fleet: disaggregation needs >= 1 prefill and >= 1 "
                   "decode replica; got " +
                   std::to_string(cfg.prefillReplicas) +
                   " prefill of " + std::to_string(cfg.replicas.size()) +
                   " total";
        if (!(cfg.link.bandwidth > BytesPerSecond(0.0)) ||
            !(cfg.link.efficiency > 0.0))
            return "fleet: the disaggregation link needs positive "
                   "bandwidth and efficiency (" + cfg.link.name + ")";
    }
    if (!(cfg.slo.ttft > Seconds(0.0)) || !(cfg.slo.tpot > Seconds(0.0)))
        return "fleet: SLO targets must be positive seconds (ttft " +
               std::to_string(cfg.slo.ttft.value()) + ", tpot " +
               std::to_string(cfg.slo.tpot.value()) + ")";
    if (cfg.controlPlane.anyEnabled()) {
        if (cfg.mode == FleetMode::Disaggregated)
            return "fleet: the control plane drives colocated fleets "
                   "only (warming, draining and cancelling across a "
                   "prefill and a decode pool is not modeled)";
        if (std::string err = validateControlPlaneConfig(
                cfg.controlPlane, cfg.replicas.size());
            !err.empty())
            return "fleet: " + err;
    }
    return "";
}

Fleet::Fleet(const ModelConfig &model_, FleetConfig cfg_)
    : model(model_), cfg(std::move(cfg_))
{
    StepCostStores stores(model);
    buildReplicas(stores);
}

Fleet::Fleet(StepCostStores &stores, FleetConfig cfg_)
    : model(stores.model()), cfg(std::move(cfg_))
{
    buildReplicas(stores);
}

void
Fleet::buildReplicas(StepCostStores &stores)
{
    if (std::string err = validateFleetConfig(cfg); !err.empty())
        PIMBA_FATAL(err);
    engines.reserve(cfg.replicas.size());
    for (const ReplicaConfig &rc : cfg.replicas) {
        EngineConfig ec = rc.engine;
        // Priority tiers are a fleet-level policy; every replica engine
        // must order its queue and pick eviction victims by the same
        // tier map.
        if (!cfg.controlPlane.tierByClass.empty())
            ec.tierByClass = cfg.controlPlane.tierByClass;
        engines.emplace_back(
            stores.get(rc.kind, rc.nGpus, rc.engine.executionMode), ec);
    }
}

std::string
Fleet::replicaLabel(size_t i) const
{
    const ReplicaConfig &rc = cfg.replicas[i];
    std::string label = "replica " + std::to_string(i) + " (" +
                        systemName(rc.kind) + " x" +
                        std::to_string(rc.nGpus);
    if (cfg.mode == FleetMode::Disaggregated)
        label += i < cfg.prefillReplicas ? ", prefill" : ", decode";
    label += ")";
    return label;
}

void
Fleet::attachObservers(const FleetObservers &o)
{
    obs = o;
    for (size_t i = 0; i < engines.size(); ++i) {
        EngineObservers eo;
        eo.tracer = obs.tracer;
        eo.pid = obs.pidBase + static_cast<int>(i);
        eo.timeline = obs.timeline;
        if (obs.timeline)
            eo.timelineTrack = obs.timeline->registerTrack(
                obs.labelPrefix + replicaLabel(i));
        if (obs.tracer)
            obs.tracer->processName(eo.pid,
                                    obs.labelPrefix + replicaLabel(i));
        engines[i].attachObservers(eo);
    }
    if (obs.tracer && cfg.mode == FleetMode::Disaggregated) {
        obs.tracer->processName(obs.interconnectPid,
                                obs.labelPrefix + "interconnect (" +
                                    cfg.link.name + ")");
        // One link lane per prefill replica: concurrent ships from
        // different sources render side by side.
        for (size_t i = 0; i < cfg.prefillReplicas; ++i)
            obs.tracer->threadName(obs.interconnectPid,
                                   static_cast<int>(i) + 1,
                                   "ships from replica " +
                                       std::to_string(i));
    }
}


FleetReport
Fleet::run(const std::vector<Request> &trace)
{
    std::vector<Request> sorted = trace;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival < b.arrival;
                     });
    VectorArrivalSource src(sorted);
    return run(src);
}

FleetReport
Fleet::run(ArrivalSource &arrivals)
{
    return pump(arrivals, nullptr);
}

FleetReport
Fleet::runStreamed(ArrivalSource &arrivals, StreamingMetrics &stream)
{
    PIMBA_ASSERT(cfg.mode == FleetMode::Colocated,
                 "runStreamed() needs a colocated fleet: hand-offs are "
                 "found by polling the prefill replicas' per-request "
                 "completion records, which the record-free streaming "
                 "mode drops");
    return pump(arrivals, &stream);
}

/**
 * The fleet's event pump: one calendar of FleetEvent entries, pulled
 * one arrival ahead from the source. Every arrival runs the engine-call
 * sequence the lockstep loop ran — advance the routing pool to the
 * arrival instant (gated by cached next-event times), snapshot, route,
 * submit — so reports are byte-identical to runLockstep() on the same
 * trace. Three things depend on the fleet's shape:
 *
 *  - the routing pool: the control plane's routable replicas (every
 *    replica when it is off), or the prefill pool when disaggregated;
 *  - before each pop the prefill pool is advanced to the event horizon
 *    and polled — a prefill completion inside (now, t] may ready a
 *    hand-off earlier than anything queued, so the poll schedules it
 *    and the pop dispatches the true minimum; an empty calendar with
 *    prefill work in flight runs that work out (a colocated fleet has
 *    no prefill pool, so this loops over nothing);
 *  - the fleet-level records: a disaggregated run synthesizes them from
 *    its hand-offs.
 *
 * The control plane (docs/control-plane.md) adds its timers to the same
 * calendar: autoscaler ticks sampling queue depth / head-of-line wait,
 * warm-up completions opening scaled-up replicas, and per-request
 * TTFT/total deadline timers. Warming and draining replicas receive no
 * routes; draining ones serve their backlog on their own engine clocks
 * (advanced lazily at ticks and at drain, which cannot change their
 * simulated completion times). Deadline timers carry the replica the
 * request was routed to, so firing one advances and probes a single
 * engine — no per-request lookup table, keeping the streamed-replay
 * memory bound intact.
 *
 * With @p stream set, the run is the bounded-memory replay shape:
 * engines fold completions into the collector instead of retaining
 * records, and the fleet skips its own O(requests) assignment and
 * completion lists.
 */
FleetReport
Fleet::pump(ArrivalSource &arrivals, StreamingMetrics *stream)
{
    FleetReport report;
    report.mode = cfg.mode;
    report.router = cfg.router;

    // Streamed runs temporarily graft the collector onto every
    // replica's observers; the attach is restored before returning so
    // the engines stay reusable for ordinary runs.
    std::vector<EngineObservers> saved;
    if (stream) {
        for (ServingEngine &e : engines) {
            saved.push_back(e.observers());
            EngineObservers eo = e.observers();
            eo.stream = stream;
            eo.streamOnly = true;
            e.attachObservers(eo);
        }
    }

    for (ServingEngine &e : engines)
        e.begin();

    const bool disaggregated = cfg.mode == FleetMode::Disaggregated;
    const ControlPlaneConfig &cpCfg = cfg.controlPlane;
    ControlPlane cp(cpCfg, engines.size());
    auto router = makeRouter(cfg.router, cfg.routerSeed);
    AdvanceGate gate(engines);
    Disaggregation disagg(engines, gate, model, cfg, obs,
                          disaggregated ? cfg.prefillReplicas : 0);
    std::vector<ReplicaSnapshot> snap;

    EventQueue<FleetEvent> calendar;
    auto schedule = [&](EventKind kind, Seconds t, uint64_t tie,
                        FleetEvent ev) {
        ev.kind = kind;
        calendar.push(t, static_cast<uint32_t>(kind), tie, std::move(ev));
    };
    auto scheduleHandoff = [&](const Handoff &h) {
        FleetEvent ev;
        ev.handoff = h;
        schedule(EventKind::Handoff, h.ready, h.req.id, std::move(ev));
    };
    bool arrivalsExhausted = false;
    auto pullArrival = [&]() {
        FleetEvent ev;
        if (arrivals.next(ev.req))
            schedule(EventKind::Arrival, ev.req.arrival, ev.req.id,
                     std::move(ev));
        else
            arrivalsExhausted = true;
    };
    auto anyBusy = [&]() {
        for (const ServingEngine &e : engines)
            if (e.queueDepth() > 0)
                return true;
        return false;
    };

    const AutoscalerConfig &as = cpCfg.autoscaler;
    if (as.enabled)
        schedule(EventKind::ScaleTick, as.interval, 0, FleetEvent{});
    pullArrival();

    while (!calendar.empty() || disagg.prefillBusy()) {
        // A prefill completion before the next event may ready an
        // earlier hand-off; on an empty calendar (+inf) this runs the
        // prefill work out.
        disagg.poll(calendar.nextTime(), report.transfer, scheduleHandoff);
        if (calendar.empty())
            continue;
        CalendarEntry<FleetEvent> e = calendar.pop();
        const Seconds t = e.time;
        FleetEvent &ev = e.payload;
        switch (ev.kind) {
        case EventKind::Warmup:
            cp.warmupDone(ev.replica, t);
            break;
        case EventKind::Arrival: {
            Request r = ev.req;
            if (cpCfg.anyEnabled())
                r.prefixLen = cpCfg.prefixTokensOf(r.classId);
            const std::vector<size_t> &pool =
                disaggregated ? disagg.prefillPool() : cp.pool();
            gate.advancePool(pool, t);
            snapshotPool(engines, pool, snap, &r);
            size_t pick = pool[router->route(snap, r)];
            if (disaggregated)
                disagg.admit(r, pick, report.assignments.size());
            else
                engines[pick].submit(r);
            gate.refresh(pick);
            // decodeReplica is set when the hand-off lands; a colocated
            // replica decodes its own work and leaves it -1.
            if (!stream)
                report.assignments.push_back(Assignment{r.id, pick, -1});
            if (const ClassDeadline *d = cpCfg.deadlineOf(r.classId)) {
                FleetEvent dl;
                dl.req.id = r.id;
                dl.replica = pick;
                if (d->ttft < kInf) {
                    dl.ttftOnly = true;
                    schedule(EventKind::Deadline, r.arrival + d->ttft,
                             r.id, dl);
                }
                if (d->total < kInf) {
                    dl.ttftOnly = false;
                    schedule(EventKind::Deadline, r.arrival + d->total,
                             r.id, dl);
                }
            }
            pullArrival();
            break;
        }
        case EventKind::Handoff:
            disagg.land(ev.handoff, report.assignments);
            break;
        case EventKind::Deadline:
            // Bring the one engine the request lives on up to the
            // deadline instant, then cancel. Completed / already
            // cancelled / kept-its-first-token requests return false —
            // a stale timer, nothing to unwind.
            gate.advanceOne(ev.replica, t);
            engines[ev.replica].cancel(ev.req.id, t, ev.ttftOnly);
            gate.refresh(ev.replica);
            break;
        case EventKind::ScaleTick: {
            // Sample the signals on settled state: routable replicas
            // advanced to the tick, draining replicas too (their
            // backlog drains on their own clocks either way; advancing
            // here just keeps queueDepth() — the re-activation warmth
            // test — current).
            const std::vector<size_t> &pool = cp.pool();
            gate.advancePool(pool, t);
            gate.advancePool(cp.drainingReplicas(), t);
            double depthSum = 0.0;
            Seconds oldest = kInf;
            for (size_t i : pool) {
                depthSum +=
                    static_cast<double>(engines[i].queueDepth());
                oldest =
                    std::min(oldest, engines[i].oldestQueuedArrival());
            }
            const double meanDepth =
                depthSum / static_cast<double>(pool.size());
            const bool waitBreached =
                as.scaleUpWait > Seconds(0.0) && oldest < kInf &&
                t - oldest >= as.scaleUpWait;
            if ((meanDepth >= as.scaleUpQueueDepth || waitBreached) &&
                cp.canScaleUp()) {
                ControlPlane::ScaleUp su = cp.scaleUp(t, engines);
                if (!su.instant) {
                    FleetEvent w;
                    w.replica = su.replica;
                    schedule(EventKind::Warmup, su.ready, su.replica, w);
                }
            } else if (as.scaleDownQueueDepth > 0.0 &&
                       meanDepth <= as.scaleDownQueueDepth &&
                       cp.canScaleDown()) {
                cp.scaleDown(t);
            }
            // Keep ticking while load can still change the signals;
            // once the trace is exhausted and every engine is idle the
            // autoscaler has nothing left to react to.
            if (!arrivalsExhausted || anyBusy())
                schedule(EventKind::ScaleTick, t + as.interval, 0,
                         FleetEvent{});
            break;
        }
        }
    }

    for (ServingEngine &e : engines)
        e.drain();
    for (ServingEngine &e : engines)
        report.replicas.push_back(e.finish());

    if (stream) {
        // The collector saw every completion; its last-finish instant
        // is exactly the makespan the sorted completion list yields.
        report.makespan = stream->lastFinishTime();
        report.metrics = stream->finalize(report.makespan);
        report.load = computeLoadStats(report.replicas);
        for (size_t i = 0; i < engines.size(); ++i)
            engines[i].attachObservers(saved[i]);
    } else if (disaggregated) {
        disagg.synthesize(report, cfg.slo);
    } else {
        mergeReplicaRecords(report, cfg.slo);
    }

    if (!cpCfg.anyEnabled())
        return report;
    cp.finalize(report.makespan, engines);
    report.controlPlane = cp.report();
    for (const ServingReport &rep : report.replicas) {
        report.controlPlane.cancelledRequests += rep.cancelledRequests;
        report.controlPlane.wastedTokens += rep.wastedTokens;
    }
    // Cancelled requests emit no completion record, so neither the
    // merged records nor the stream saw them — surface the counts in
    // the fleet-level metrics too.
    report.metrics.cancelledRequests =
        report.controlPlane.cancelledRequests;
    report.metrics.wastedTokens = report.controlPlane.wastedTokens;
    return report;
}

FleetReport
Fleet::runLockstep(const std::vector<Request> &trace)
{
    // The pre-event-core driver's dispatch order, kept independent of
    // the pump: it walks the sorted trace eagerly, keeps its own
    // hand-off priority queue, and re-derives the event order per
    // iteration. The equivalence suite holds the calendar pump to this
    // implementation's exact output; do not "improve" one without the
    // other.
    PIMBA_ASSERT(!cfg.controlPlane.anyEnabled(),
                 "runLockstep() predates the control plane; use run()");
    std::vector<Request> sorted = trace;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival < b.arrival;
                     });

    FleetReport report;
    report.mode = cfg.mode;
    report.router = cfg.router;
    report.assignments.reserve(sorted.size());

    for (ServingEngine &e : engines)
        e.begin();

    const bool colocated = cfg.mode == FleetMode::Colocated;
    auto router = makeRouter(cfg.router, cfg.routerSeed);
    AdvanceGate gate(engines);
    std::vector<ReplicaSnapshot> snap;
    Disaggregation disagg(engines, gate, model, cfg, obs,
                          colocated ? 0 : cfg.prefillReplicas);

    if (colocated) {
        std::vector<size_t> pool(engines.size());
        std::iota(pool.begin(), pool.end(), size_t{0});
        for (const Request &r : sorted) {
            gate.advancePool(pool, r.arrival);
            snapshotPool(engines, pool, snap);
            size_t pick = pool[router->route(snap, r)];
            engines[pick].submit(r);
            gate.refresh(pick);
            report.assignments.push_back(Assignment{r.id, pick, -1});
        }
    } else {
        const std::vector<size_t> &prefills = disagg.prefillPool();
        std::priority_queue<Handoff, std::vector<Handoff>, HandoffLater>
            due;
        auto enqueue = [&](const Handoff &h) { due.push(h); };
        size_t next = 0;
        while (next < sorted.size() || !due.empty() ||
               disagg.prefillBusy()) {
            Seconds ta =
                next < sorted.size() ? sorted[next].arrival : kInf;
            Seconds th = due.empty() ? kInf : due.top().ready;
            Seconds t = std::min(ta, th);
            // At t = +inf this runs the prefill work out to discover
            // the remaining hand-offs.
            disagg.poll(t, report.transfer, enqueue);
            if (t == kInf)
                continue;
            th = due.empty() ? kInf : due.top().ready;

            if (ta <= th) {
                const Request &r = sorted[next++];
                snapshotPool(engines, prefills, snap);
                size_t pick = prefills[router->route(snap, r)];
                disagg.admit(r, pick, report.assignments.size());
                gate.refresh(pick);
                report.assignments.push_back(Assignment{r.id, pick, -1});
            } else {
                Handoff h = due.top();
                due.pop();
                disagg.land(h, report.assignments);
            }
        }
    }

    for (ServingEngine &e : engines)
        e.drain();
    for (ServingEngine &e : engines)
        report.replicas.push_back(e.finish());
    if (colocated)
        mergeReplicaRecords(report, cfg.slo);
    else
        disagg.synthesize(report, cfg.slo);
    return report;
}

} // namespace pimba
