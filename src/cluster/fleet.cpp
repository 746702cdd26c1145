#include "cluster/fleet.h"

#include <algorithm>
#include <limits>
#include <unordered_map> // pimba-lint: allow(node-container) per-run handoff bookkeeping

#include "core/event_queue.h"
#include "core/logging.h"

namespace pimba {

namespace {

constexpr Seconds kInf{std::numeric_limits<double>::infinity()};

/** advanceTo(@p t) on each replica of @p pool whose next event is due
 *  by @p t; on the others it would be a pure no-op. */
void
advanceDue(std::vector<ServingEngine> &engines,
           const std::vector<size_t> &pool, Seconds t)
{
    for (size_t i : pool)
        if (engines[i].nextEventTime() <= t)
            engines[i].advanceTo(t);
}

/**
 * Load snapshots of @p pool, in pool order, into the caller's reused
 * buffer. The prefix locality signal depends on the arriving request:
 * it is read only for a request with a prefix id, and the decode
 * landing, which routes without a request, leaves it zero.
 */
void
snapshotPool(const std::vector<ServingEngine> &engines,
             const std::vector<size_t> &pool,
             std::vector<ReplicaSnapshot> &snap,
             const Request *req = nullptr)
{
    snap.clear();
    for (size_t i : pool) {
        const ServingEngine &e = engines[i];
        ReplicaSnapshot &s = snap.emplace_back();
        s.queueDepth = e.queueDepth();
        s.outstandingTokens = e.outstandingTokens();
        s.tierPressure = e.tierPressure();
        if (req && req->prefixLen > 0)
            s.cachedPrefixBlocks = e.cachedPrefixBlocks(req->classId);
    }
}

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

/** One request on its way from the prefill to the decode pool. */
struct Handoff
{
    Seconds ready{0.0};        ///< transfer completes on the link
    Request req;               ///< the original request
    size_t assignment = 0;     ///< its routing-order slot
    Seconds prefillFinish{0.0};
    Seconds linkSeconds{0.0};
    Seconds prefillQueueing{0.0};
    uint64_t prefillPreemptions = 0;
};

/// Fleet calendar event kinds. The enumerator value is the calendar
/// class, so at one instant: a warm-up completion makes its replica
/// routable before a same-time arrival routes; an arrival routes before
/// a same-time hand-off lands, and hand-offs land in (ready, id) order;
/// both come before any deadline timer (a request admitted at its exact
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
 * Prefill -> decode hand-off bookkeeping of one run, and the fleet's
 * record path: it costs each transfer and builds every fleet-level
 * record. The first @c prefillReplicas replicas form the prefill pool,
 * the rest the decode pool; constructed with 0 (a colocated fleet) the
 * prefill pool is empty and every prefill-side call is a no-op.
 *
 * Construction begins every engine's session with the sink its
 * completions go to. A colocated engine's is @c stream, if any. A
 * prefill engine's is its ReplicaSink, so it keeps no records: a
 * completion becomes a hand-off (or, for a single-token request, a
 * finished record). A decode engine of a streamed run has its
 * ReplicaSink too, which turns a completion into its fleet-level
 * record at once and streams it, so a request holds state here only
 * while in flight; a record-retaining run's decode engines keep their
 * records, which finish() joins through the same function.
 */
class Disaggregation
{
  public:
    Disaggregation(std::vector<ServingEngine> &engines_,
                   const ModelConfig &model_, const FleetConfig &cfg,
                   const FleetObservers &obs_, size_t prefillReplicas,
                   StreamingMetrics *stream_)
        : engines(engines_), model(model_), obs(obs_),
          // Decouple the two stages' sampling streams but keep both
          // seeded.
          decodeRouter(cfg.router, cfg.routerSeed ^ 0x9E3779B9u),
          link(cfg.link), stream(stream_)
    {
        sinks.reserve(engines.size());
        for (size_t i = 0; i < engines.size(); ++i) {
            (i < prefillReplicas ? prefills : decodes).push_back(i);
            sinks.emplace_back(this, i);
        }
        for (size_t i = 0; i < engines.size(); ++i) {
            CompletionSink *sink = &sinks[i];
            if (prefills.empty())
                sink = stream;
            else if (i >= prefills.size() && !stream)
                sink = nullptr; // finish() joins its retained records
            engines[i].begin(sink);
        }
    }

    // The engines hold pointers into this object's sinks.
    Disaggregation(const Disaggregation &) = delete;
    Disaggregation &operator=(const Disaggregation &) = delete;

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
        Handoff h;
        h.req = r;
        h.assignment = assignment;
        PIMBA_ASSERT(prefilling.emplace(r.id, h).second,
                     "duplicate request id ", r.id, " in trace");
        Request pr = r;
        pr.outputLen = 1;
        engines[pick].submit(pr);
    }

    /**
     * Advance the prefill pool to @p t (+inf runs it out) and turn the
     * completions it pushed into hand-offs, each passed to @p schedule
     * in replica order once the whole pool has advanced (so a ship
     * slice follows the prefill replicas' own trace events of its
     * instant). The shipped bytes are the request's cached state + KV at
     * prompt + 1 tokens, in the *prefill* replica's storage formats.
     */
    template <typename Schedule>
    void
    advancePrefill(Seconds t, TransferStats &transfer, Schedule &&schedule)
    {
        advanceDue(engines, prefills, t);
        for (const auto &[i, c] : prefilled) {
            auto node = prefilling.extract(c.req.id);
            PIMBA_ASSERT(!node.empty(), "prefill completion of unknown "
                                        "request ", c.req.id);
            Handoff &h = node.mapped();
            if (h.req.outputLen == 1) {
                // Fully served by the prefill stage; never ships.
                finished(c);
                continue;
            }
            MemoryUsage mem = engines[i].simulator().memoryUsage(
                model, 1, h.req.inputLen + 1);
            Bytes bytes = mem.state + mem.kvCache;
            LinkCost cost = link.transfer(bytes);
            h.prefillFinish = finishTime(c);
            h.ready = h.prefillFinish + cost.seconds;
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
                    "ship req " + std::to_string(h.req.id), "interconnect",
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
        prefilled.clear();
    }

    /** @p h's blocks landed: route it onto the decode pool, whose clock
     *  for the request starts at the landing instant. A streamed run
     *  keeps no @p assignments. */
    void
    land(const Handoff &h, std::vector<Assignment> &assignments)
    {
        advanceDue(engines, decodes, h.ready);
        snapshotPool(engines, decodes, snap);
        size_t pick = decodes[decodeRouter.route(snap, h.req)];
        Request dr = h.req;
        dr.arrival = h.ready;
        decoding.emplace(h.req.id, h);
        engines[pick].submitPrefilled(dr);
        if (!stream)
            assignments[h.assignment].decodeReplica =
                static_cast<int>(pick);
    }

    /**
     * The run's epilogue: drain and close every replica's session, and
     * fill the fleet-level metrics and transfer breakdown. Unless
     * streamed, the fleet-level records come first: a colocated run's
     * are its replicas' records; a disaggregated run's are joined from
     * the decode replicas' reports in replica order, then completion
     * order (the order the TTFT-share sum has always run in), followed
     * by the single-token ones. They are then ordered by completion.
     */
    void
    finish(FleetReport &report, const SloConfig &slo)
    {
        for (ServingEngine &e : engines)
            e.drain();
        for (ServingEngine &e : engines)
            report.replicas.push_back(e.finish());
        report.load = computeLoadStats(report.replicas);
        if (stream) {
            // The collector saw every fleet-level completion; its
            // last-finish instant is exactly the makespan the sorted
            // completion list yields.
            report.makespan = stream->lastFinishTime();
            report.metrics = stream->finalize(report.makespan);
        } else {
            for (size_t i : decodes)
                for (const CompletedRequest &c :
                     report.replicas[i].completed)
                    report.completed.push_back(prefills.empty() ? c
                                                                : joined(c));
            report.completed.insert(report.completed.end(),
                                    prefillOnly.begin(), prefillOnly.end());
            sortByCompletion(report.completed);
            report.makespan = report.completed.empty()
                                  ? Seconds(0.0)
                                  : finishTime(report.completed.back());
            report.metrics =
                computeMetrics(report.completed, report.makespan, slo);
        }
        report.transfer.perTransfer = stream
                                          ? summarizeSketch(linkSketch)
                                          : summarizeLatency(linkSamples);
        const uint64_t handoffs = report.transfer.perTransfer.count;
        report.transfer.meanTtftShare =
            handoffs == 0 ? 0.0
                          : shareSum / static_cast<double>(handoffs);
    }

  private:
    /// Routes one replica's completions to its pool's handler.
    struct ReplicaSink final : CompletionSink
    {
        ReplicaSink(Disaggregation *d, size_t i) : owner(d), replica(i) {}

        void
        observe(const CompletedRequest &c) override
        {
            if (replica < owner->prefills.size())
                owner->prefilled.emplace_back(replica, c);
            else
                owner->finished(owner->joined(c));
        }

        Disaggregation *owner;
        size_t replica;
    };

    /**
     * The fleet-level record of decode completion @p c: TTFT is
     * prefill + transfer (the first token is not servable until its
     * blocks land on the decode replica), decode-stage queueing and
     * compute land in TPOT. Its link time and TTFT share join the
     * transfer breakdown; a streamed run then forgets the request.
     */
    CompletedRequest
    joined(const CompletedRequest &c)
    {
        auto it = decoding.find(c.req.id);
        PIMBA_ASSERT(it != decoding.end(), "decode completion of ",
                     c.req.id, " without a hand-off");
        const Handoff &h = it->second;
        CompletedRequest out;
        out.req = h.req;
        out.ttft = h.prefillFinish + h.linkSeconds - h.req.arrival;
        out.latency = finishTime(c) - h.req.arrival;
        out.tpot = (out.latency - out.ttft) /
                   static_cast<double>(h.req.outputLen - 1);
        out.queueing = h.prefillQueueing;
        out.preemptions = h.prefillPreemptions + c.preemptions;
        shareSum += h.linkSeconds / out.ttft;
        if (stream) {
            linkSketch.add(h.linkSeconds.value());
            decoding.erase(it);
        } else {
            linkSamples.push_back(h.linkSeconds.value());
        }
        return out;
    }

    /** A finished fleet-level record: streamed, or kept for finish(). */
    void
    finished(const CompletedRequest &c)
    {
        if (stream)
            stream->observe(c);
        else
            prefillOnly.push_back(c);
    }

    std::vector<ServingEngine> &engines;
    const ModelConfig &model;
    const FleetObservers &obs;
    Router decodeRouter;
    const LinkModel link;
    StreamingMetrics *stream; ///< null: records are retained
    std::vector<size_t> prefills, decodes;
    std::vector<ReplicaSink> sinks; ///< one per replica
    std::vector<ReplicaSnapshot> snap;
    /// Prefill completions pushed during the current pool advance.
    std::vector<std::pair<size_t, CompletedRequest>> prefilled;
    // pimba-lint: allow(node-container) touched once per request, not per step
    std::unordered_map<uint64_t, Handoff> prefilling; ///< admitted, not prefilled
    std::unordered_map<uint64_t, Handoff> decoding; // pimba-lint: allow(node-container) ditto; landed
    std::vector<CompletedRequest> prefillOnly; // single-token requests
    double shareSum = 0.0; ///< per hand-off: link seconds / TTFT
    std::vector<double> linkSamples; ///< per hand-off link seconds
    QuantileSketch linkSketch;       ///< the same, when streamed
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
    return pump(arrivals, &stream);
}

/**
 * The fleet's event pump: one calendar of FleetEvent entries, pulled
 * one arrival ahead from the source. Every arrival advances the routing
 * pool to the arrival instant (skipping replicas with nothing due),
 * snapshots the pool's load signals, routes and submits. Three things
 * depend on the fleet's shape:
 *
 *  - the routing pool: the control plane's routable replicas (every
 *    replica when it is off), or the prefill pool when disaggregated;
 *  - before each pop the prefill pool is advanced to the event horizon
 *    — a prefill completion inside (now, t] may ready a hand-off
 *    earlier than anything queued, so the completions it pushes are
 *    scheduled and the pop dispatches the true minimum; an empty
 *    calendar with prefill work in flight runs that work out (a
 *    colocated fleet has no prefill pool, so this loops over nothing);
 *  - the fleet-level records: a disaggregated run joins them from its
 *    hand-offs and decode completions.
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
 * Disaggregation begins each engine's session with the sink its
 * completions go to: a disaggregated fleet's hand-off bookkeeping, a
 * colocated fleet's @p stream when set. With @p stream set, the run is
 * the bounded-memory replay shape: engines retain no records, every
 * fleet-level record folds into the collector, and the fleet skips its
 * own O(requests) assignment and completion lists.
 */
FleetReport
Fleet::pump(ArrivalSource &arrivals, StreamingMetrics *stream)
{
    FleetReport report;
    report.mode = cfg.mode;
    report.router = cfg.router;

    const bool disaggregated = cfg.mode == FleetMode::Disaggregated;
    const ControlPlaneConfig &cpCfg = cfg.controlPlane;
    ControlPlane cp(cpCfg, engines.size());
    Router router(cfg.router, cfg.routerSeed);
    std::vector<ReplicaSnapshot> snap;

    EventQueue<FleetEvent> calendar;
    auto schedule = [&](EventKind kind, Seconds t, uint64_t tie,
                        FleetEvent ev) {
        ev.kind = kind;
        calendar.push(t, static_cast<uint32_t>(kind), tie, std::move(ev));
    };
    Disaggregation disagg(engines, model, cfg, obs,
                          disaggregated ? cfg.prefillReplicas : 0, stream);
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
    // Whether a replica still has work with a next event. Asked once
    // the trace is exhausted, when nothing else can wake a replica: one
    // holding work without a next event would re-arm the ticks forever.
    auto anyBusy = [&]() {
        size_t stuck = engines.size();
        for (size_t i = 0; i < engines.size(); ++i) {
            if (engines[i].queueDepth() == 0)
                continue;
            if (engines[i].nextEventTime() < kInf)
                return true;
            stuck = i;
        }
        PIMBA_ASSERT(stuck == engines.size(), "replica ", stuck, " holds ",
                     engines[stuck].queueDepth(),
                     " requests but has no next event");
        return false;
    };

    const AutoscalerConfig &as = cpCfg.autoscaler;
    if (as.enabled)
        schedule(EventKind::ScaleTick, as.interval, 0, FleetEvent{});
    pullArrival();

    while (!calendar.empty() || disagg.prefillBusy()) {
        // A prefill completion before the next event may ready an
        // earlier hand-off; on an empty calendar (+inf) this runs the
        // prefill work out, so a calendar still empty means an idle
        // pool.
        disagg.advancePrefill(calendar.nextTime(), report.transfer,
                              scheduleHandoff);
        if (calendar.empty()) {
            PIMBA_ASSERT(!disagg.prefillBusy(), "the prefill pool holds "
                         "work it cannot run out");
            break;
        }
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
            advanceDue(engines, pool, t);
            snapshotPool(engines, pool, snap, &r);
            size_t pick = pool[router.route(snap, r)];
            if (disaggregated)
                disagg.admit(r, pick, report.assignments.size());
            else
                engines[pick].submit(r);
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
        case EventKind::Deadline: {
            // Bring the one engine the request lives on up to the
            // deadline instant, then cancel. Completed / already
            // cancelled / kept-its-first-token requests return false —
            // a stale timer, nothing to unwind.
            ServingEngine &e = engines[ev.replica];
            if (e.nextEventTime() <= t)
                e.advanceTo(t);
            e.cancel(ev.req.id, t, ev.ttftOnly);
            break;
        }
        case EventKind::ScaleTick: {
            // Sample the signals on settled state: routable replicas
            // advanced to the tick, draining replicas too (their
            // backlog drains on their own clocks either way; advancing
            // here just keeps queueDepth() — the re-activation warmth
            // test — current).
            const std::vector<size_t> &pool = cp.pool();
            advanceDue(engines, pool, t);
            advanceDue(engines, cp.drainingReplicas(), t);
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

    disagg.finish(report, cfg.slo);

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

} // namespace pimba
