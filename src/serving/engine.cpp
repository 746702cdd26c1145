#include "serving/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/logging.h"

namespace pimba {

Tokens
resolvedIterTokenBudget(const EngineConfig &cfg)
{
    return cfg.iterTokenBudget != Tokens(0)
               ? cfg.iterTokenBudget
               : Tokens(static_cast<uint64_t>(cfg.maxBatch)) +
                     cfg.prefillChunk;
}

std::string
validateEngineConfig(const EngineConfig &cfg)
{
    if (cfg.maxBatch < 1)
        return "engine: maxBatch must be >= 1, got " +
               std::to_string(cfg.maxBatch);
    if (cfg.prefillChunk < Tokens(1))
        return "engine: prefillChunk must be >= 1 (a chunk of zero "
               "prompt tokens never finishes a prefill)";
    if (cfg.blockTokens < Tokens(1))
        return "engine: blockTokens must be >= 1 (the paged allocator "
               "cannot carve zero-token blocks)";
    if (cfg.memoryBudget < Bytes(0.0))
        return "engine: memoryBudget must be >= 0 bytes (0 selects the "
               "system's HBM capacity), got " +
               std::to_string(cfg.memoryBudget.value());
    if (!(cfg.slo.ttft > Seconds(0.0)) || !(cfg.slo.tpot > Seconds(0.0)))
        return "engine: SLO targets must be positive seconds (ttft " +
               std::to_string(cfg.slo.ttft.value()) + ", tpot " +
               std::to_string(cfg.slo.tpot.value()) + ")";
    // A chunk holds at most prefillChunk tokens and a fused iteration
    // at most max(maxBatch, budget).
    if (cfg.prefillChunk > Tokens(kMaxStepTokens) ||
        resolvedIterTokenBudget(cfg) > Tokens(kMaxStepTokens))
        return "engine: prefillChunk and the iteration token budget "
               "must each be <= " +
               std::to_string(kMaxStepTokens) + ", got " +
               std::to_string(cfg.prefillChunk.value()) + " and " +
               std::to_string(resolvedIterTokenBudget(cfg).value());
    return "";
}

ServingEngine::ServingEngine(const ServingSimulator &sim,
                             const ModelConfig &model, EngineConfig cfg_)
    : ServingEngine(std::make_shared<StepCostStore>(sim, model,
                                                    cfg_.executionMode),
                    cfg_)
{}

ServingEngine::ServingEngine(std::shared_ptr<StepCostStore> costs_,
                             EngineConfig cfg_)
    : costs(std::move(costs_)), cfg(cfg_)
{
    if (std::string err = validateEngineConfig(cfg); !err.empty())
        PIMBA_FATAL(err);
    PIMBA_ASSERT(!cfg.executionMode ||
                     *cfg.executionMode ==
                         costs->simulator().system().executionMode,
                 "engine execution mode differs from its step-cost "
                 "store's");
    cfg.iterTokenBudget = resolvedIterTokenBudget(cfg);
    sched = {cfg.policy, cfg.prefillChunk, cfg.iterTokenBudget};
}

void
ServingEngine::attachObservers(const EngineObservers &o)
{
    obs = o;
    quietLeft = 0; // a tracer or timeline needs every iteration
    if (obs.tracer) {
        obs.tracer->threadName(obs.pid, kTraceIterTid, "iterations");
        obs.tracer->threadName(obs.pid, kTraceGpuTid, "gpu");
        obs.tracer->threadName(obs.pid, kTracePimTid, "pim");
        obs.tracer->threadName(obs.pid, kTraceSyncTid, "sync");
    }
}

void
ServingEngine::tracePhaseSlices(Seconds start, const StepCost &ph,
                                std::string_view name)
{
    Tracer &t = *obs.tracer;
    const bool overlapped = costs->simulator().system().executionMode ==
                            ExecutionMode::Overlapped;
    // Blocked mode runs gpu -> pim -> sync back-to-back; overlapped
    // mode launches gpu and pim together and syncs after the longer
    // one — matching StepResult::blockedSeconds/overlappedSeconds.
    Seconds pimStart = overlapped ? start : start + ph.gpu;
    Seconds syncStart = overlapped ? start + std::max(ph.gpu, ph.pim)
                                   : start + (ph.gpu + ph.pim);
    if (ph.gpu > Seconds(0.0))
        t.complete(obs.pid, kTraceGpuTid, start, ph.gpu, name, "gpu");
    if (ph.pim > Seconds(0.0))
        t.complete(obs.pid, kTracePimTid, pimStart, ph.pim, name, "pim");
    if (ph.sync > Seconds(0.0))
        t.complete(obs.pid, kTraceSyncTid, syncStart, ph.sync, name,
                   "sync");
}

void
ServingEngine::traceIteration(Seconds start, Seconds dur, int decodeBatch,
                              uint64_t prefillTokens)
{
    const char *kind = plan.fused ? "fused"
                       : decodeBatch > 0
                           ? (plan.prefill.empty() ? "decode"
                                                   : "decode+prefill")
                           : "prefill";
    obs.tracer->complete(
        obs.pid, kTraceIterTid, start, dur, kind, "iteration",
        {{"batch", static_cast<double>(running.size())},
         {"decode_batch", static_cast<double>(decodeBatch)},
         {"prefill_tokens", static_cast<double>(prefillTokens)}});
    // Substeps run sequentially (seed behavior): the one fused step,
    // or the decode step first and then each prefill chunk, each
    // internally split into its gpu/pim/sync phases.
    Seconds cursor = start;
    for (size_t k = 0; k < substeps.size(); ++k) {
        const char *name = plan.fused                  ? "fused"
                           : k == 0 && decodeBatch > 0 ? "decode"
                                                       : "prefill";
        tracePhaseSlices(cursor, substeps[k], name);
        cursor += substeps[k].seconds;
    }
}

void
ServingEngine::begin(CompletionSink *sink_)
{
    PIMBA_ASSERT(!active, "begin() inside an open session");
    sink = sink_;
    report = ServingReport{};
    report.policy = cfg.policy;
    const ServingSimulator &sim = costs->simulator();
    const ModelConfig &model = costs->model();
    report.executionMode = sim.system().executionMode;
    report.memoryBudget = cfg.memoryBudget > Bytes(0.0)
                              ? cfg.memoryBudget
                              : Bytes(sim.system().gpu.memCapacity *
                                      sim.system().nGpus);
    weightBytes = sim.weightFootprint(model);
    PIMBA_ASSERT(weightBytes < report.memoryBudget,
                 "model weights alone exceed the memory budget");

    // Carve the post-weights pool into blocks. The mapper quantizes a
    // request's fixed (state + activation) and per-token KV demand.
    const Bytes fixedBytes = sim.requestFootprint(model, 0);
    const Bytes perTokenBytes =
        sim.requestFootprint(model, 1) - fixedBytes;
    mapper = BlockMapper::make(fixedBytes, perTokenBytes, cfg.blockTokens);
    const uint64_t totalBlocks = static_cast<uint64_t>(
        (report.memoryBudget - weightBytes) / mapper.blockBytes);
    if (totalBlocks == 0)
        PIMBA_FATAL("budget of ", report.memoryBudget.value(),
                    " bytes leaves no room for a single ",
                    mapper.blockBytes.value(),
                    "-byte block past the weights");
    blocks.emplace(Blocks(totalBlocks));
    report.totalBlocks = Blocks(totalBlocks);

    clock = Seconds(0.0);
    utilSum = 0.0;
    submitted = 0;
    pendingArrivals.clear();
    waiting.clear();
    running.clear();
    prefixCache.clear();
    quietLeft = 0;
    advancedTo = Seconds(-std::numeric_limits<double>::infinity());
    load = LoadSignals{};
    active = true;
}

namespace {

/// @p rs's share of outstandingTokens(). A queued prefilled import
/// (generated == 0 until admission) owes its output but the first.
uint64_t
outstandingOf(const RequestState &rs)
{
    if (rs.preloaded && rs.generated == 0)
        return rs.req.outputLen - 1;
    return (rs.req.inputLen - rs.prefilled) +
           (rs.req.outputLen - rs.generated);
}

} // namespace

void
ServingEngine::submit(const Request &r)
{
    PIMBA_ASSERT(active, "submit() outside a session");
    PIMBA_ASSERT(r.inputLen >= 1 && r.outputLen >= 1, "request ", r.id,
                 " has empty prompt or output");
    PIMBA_ASSERT(pendingArrivals.empty() ||
                     r.arrival >= pendingArrivals.back().req.arrival,
                 "arrivals must be submitted in non-decreasing order");
    PIMBA_ASSERT(r.arrival >= advancedTo, "request ", r.id, " arrives at ",
                 r.arrival.value(), ", before the engine was advanced to ",
                 advancedTo.value());
    pendingArrivals.push_back(RequestState{.req = r});
    ++submitted;
    ++load.queueDepth;
    load.outstandingTokens += r.inputLen + r.outputLen;
    load.tierPressure += tierWeight(r.classId);
    publishNextEvent();
    if (obs.tracer) {
        // One lane per request: open its span at arrival time; the
        // retire path closes it at completion.
        int64_t lane = requestLane(r.id);
        const std::string label = "req " + std::to_string(r.id);
        obs.tracer->threadName(obs.pid, lane, label);
        obs.tracer->begin(
            obs.pid, lane, r.arrival, label, "request",
            {{"input_len", static_cast<double>(r.inputLen)},
             {"output_len", static_cast<double>(r.outputLen)}});
    }
}

void
ServingEngine::submitPrefilled(const Request &r)
{
    PIMBA_ASSERT(r.outputLen >= 2, "prefilled request ", r.id,
                 " has nothing left to decode — single-token requests "
                 "complete at the prefill stage");
    submit(r);
    pendingArrivals.back().preloaded = true;
    // Its prompt and first token were served upstream.
    load.outstandingTokens -= r.inputLen + 1;
}

int
ServingEngine::tierOf(uint32_t classId) const
{
    return classId < cfg.tierByClass.size() ? cfg.tierByClass[classId]
                                            : 0;
}

uint64_t
ServingEngine::tierWeight(uint32_t classId) const
{
    return cfg.tierByClass.empty()
               ? 0
               : static_cast<uint64_t>(tierOf(classId)) + 1;
}

void
ServingEngine::enqueueWaiting(const RequestState &rs, bool atSegmentFront)
{
    if (cfg.tierByClass.empty()) {
        // Untiered: the exact FIFO (and eviction push_front) the
        // engine has always had, byte-identical.
        if (atSegmentFront)
            waiting.push_front(rs);
        else
            waiting.push_back(rs);
        return;
    }
    // The queue is kept ordered by tier, highest first, FIFO within a
    // tier. A new arrival joins the *back* of its tier segment; an
    // evicted request rejoins the *front* of its segment (it keeps its
    // recompute-next priority among peers but never jumps a higher
    // tier).
    const int tier = tierOf(rs.req.classId);
    size_t pos = 0;
    if (atSegmentFront) {
        while (pos < waiting.size() &&
               tierOf(waiting[pos].req.classId) > tier)
            ++pos;
    } else {
        while (pos < waiting.size() &&
               tierOf(waiting[pos].req.classId) >= tier)
            ++pos;
    }
    waiting.insert(waiting.begin() + static_cast<std::ptrdiff_t>(pos),
                   rs);
}

void
ServingEngine::revealArrivals()
{
    while (!pendingArrivals.empty() &&
           pendingArrivals.front().req.arrival <= clock) {
        enqueueWaiting(pendingArrivals.front(), /*atSegmentFront=*/false);
        pendingArrivals.pop_front();
        quietLeft = 0; // the next iteration admits
    }
}

Seconds
ServingEngine::advanceTo(Seconds t)
{
    PIMBA_ASSERT(active, "advanceTo() outside a session");
    advancedTo = t;
    while (true) {
        if (quietLeft > 0)
            fastForward(t);
        revealArrivals();
        if (running.empty() && waiting.empty()) {
            // Idle: jump to the next arrival if it is due by t.
            if (!pendingArrivals.empty() &&
                pendingArrivals.front().req.arrival <= t) {
                clock = std::max(clock, pendingArrivals.front().req.arrival);
                continue;
            }
            break;
        }
        if (clock >= t)
            break;
        iterate();
    }
    publishNextEvent();
    return clock;
}

void
ServingEngine::drain()
{
    advanceTo(Seconds(std::numeric_limits<double>::infinity()));
    PIMBA_ASSERT(report.completedRequests + report.cancelledRequests ==
                     submitted,
                 "drain left ",
                 submitted - report.completedRequests -
                     report.cancelledRequests,
                 " requests unserved");
}

ServingReport
ServingEngine::finish()
{
    PIMBA_ASSERT(active, "finish() outside a session");
    PIMBA_ASSERT(report.completedRequests + report.cancelledRequests ==
                     submitted,
                 "finish() before drain: ",
                 submitted - report.completedRequests -
                     report.cancelledRequests,
                 " requests in flight");
    PIMBA_ASSERT(blocks->usedBlocks() == Blocks(0),
                 "block pool leaked at drain: ",
                 blocks->usedBlocks().value(),
                 " blocks still allocated");
    report.makespan = clock;
    report.avgBlockUtil =
        report.iterations > 0
            ? utilSum / static_cast<double>(report.iterations)
            : 0.0;
    report.metrics = computeMetrics(report.completed, report.makespan,
                                    cfg.slo);
    // computeMetrics credits each completion with its full outputLen,
    // but an imported (submitPrefilled) request's first token was
    // delivered by its prefill replica — this replica's delivered
    // counter is authoritative. Identical for ordinary runs.
    report.metrics.generatedTokens = report.generatedTokens;
    report.metrics.tokensPerSec =
        report.makespan > Seconds(0.0)
            ? Tokens(report.generatedTokens) / report.makespan
            : TokensPerSecond(0.0);
    report.metrics.cancelledRequests = report.cancelledRequests;
    report.metrics.wastedTokens = report.wastedTokens;
    // A session with a sink kept no records, so computeMetrics saw none;
    // the counter is exact either way (and equals the record count
    // without a sink).
    report.metrics.requests = report.completedRequests;
    report.metrics.requestsPerSec =
        report.makespan > Seconds(0.0)
            ? RequestsPerSecond(
                  static_cast<double>(report.completedRequests) /
                  report.makespan.value())
            : RequestsPerSecond(0.0);
    active = false;
    return std::move(report);
}

size_t
ServingEngine::waitingCount() const
{
    return waiting.size() + pendingArrivals.size();
}

void
ServingEngine::publishNextEvent()
{
    if (!running.empty() || !waiting.empty())
        load.nextEvent = clock; // resident or revealed work: due now
    else if (!pendingArrivals.empty())
        load.nextEvent = pendingArrivals.front().req.arrival;
    else
        load.nextEvent = Seconds(std::numeric_limits<double>::infinity());
}

uint64_t
ServingEngine::cachedPrefixBlocks(uint32_t classId) const
{
    if (classId >= prefixCache.size() || prefixCache[classId] == 0)
        return 0;
    const uint64_t bt = cfg.blockTokens.value();
    return (prefixCache[classId] + bt - 1) / bt;
}

Seconds
ServingEngine::oldestQueuedArrival() const
{
    Seconds oldest{std::numeric_limits<double>::infinity()};
    for (const RequestState &rs : waiting)
        oldest = std::min(oldest, rs.req.arrival);
    return oldest;
}

namespace {

/// What a resident leaving the batch early (evicted or cancelled) did
/// on this replica.
struct LocalWork
{
    uint64_t delivered = 0; ///< tokens that leave the delivered counter
    uint64_t computed = 0;  ///< recompute debt on eviction, waste on cancel
};

/**
 * The local work of @p rs, checked against the engine's @p delivered
 * counter; @p on names the path for the underflow asserts. A preloaded
 * request's prompt and first token were produced (and counted) on its
 * prefill replica, so only local decode steps are this replica's —
 * clamped: a preloaded resident sits at generated == 1 until its first
 * local step, and an unclamped `generated - 1` would wrap the unsigned
 * counters if a zero-generated state ever reached here. Prefix-cache-
 * skipped prompt tokens were never computed here, so they are not local
 * work (an evicted request skips them again from the still-warm cache
 * on re-admission).
 */
LocalWork
localWork(const RequestState &rs, uint64_t delivered, const char *on)
{
    LocalWork w;
    if (rs.preloaded) {
        w.delivered = rs.generated > 0 ? rs.generated - 1 : 0;
        w.computed = w.delivered;
    } else {
        PIMBA_ASSERT(rs.prefilled >= rs.prefixSkipped,
                     "prefix-skip accounting underflow on ", on);
        w.delivered = rs.generated;
        w.computed = (rs.prefilled - rs.prefixSkipped) + rs.generated;
    }
    PIMBA_ASSERT(delivered >= w.delivered,
                 "delivered-token counter underflow on ", on);
    return w;
}

} // namespace

bool
ServingEngine::cancel(uint64_t id, Seconds now, bool onlyIfNoFirstToken)
{
    PIMBA_ASSERT(active, "cancel() outside a session");
    auto closeLane = [&] {
        if (obs.tracer)
            obs.tracer->end(obs.pid, requestLane(id),
                            std::max(now, clock));
    };
    auto unload = [&](const RequestState &rs) {
        --load.queueDepth;
        load.outstandingTokens -= outstandingOf(rs);
        load.tierPressure -= tierWeight(rs.req.classId);
        ++report.cancelledRequests;
        closeLane();
    };
    // Queued (never admitted, or evicted back to the queue): nothing
    // was computed since the last eviction — the eviction path already
    // billed any discarded work as recompute debt — so only the
    // record goes.
    auto dropQueued = [&](std::deque<RequestState> &q) {
        for (auto it = q.begin(); it != q.end(); ++it) {
            if (it->req.id != id)
                continue;
            unload(*it);
            q.erase(it);
            return true;
        }
        return false;
    };
    if (dropQueued(waiting) || dropQueued(pendingArrivals)) {
        publishNextEvent();
        auditLedgers();
        return true;
    }

    for (size_t i = 0; i < running.size(); ++i) {
        RequestState &rs = running[i];
        if (rs.req.id != id)
            continue;
        if (onlyIfNoFirstToken && rs.firstToken >= Seconds(0.0))
            return false; // TTFT deadline already met
        // Locally computed work becomes waste and leaves the delivered
        // counter.
        const LocalWork w =
            localWork(rs, report.generatedTokens, "cancel");
        report.generatedTokens -= w.delivered;
        report.wastedTokens += w.computed;
        blocks->release(rs.heldBlocks);
        unload(rs);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        quietLeft = 0; // the batch and its decode mean changed
        publishNextEvent();
        auditLedgers();
        return true;
    }
    return false; // already completed or cancelled — stale timer
}

void
ServingEngine::iterate()
{
    PIMBA_ASSERT(!running.empty() || !waiting.empty(),
                 "iterate() with no work");

    // Policy-ordered admission. A request is admitted when its whole
    // prompt (plus the first output token) could be cached into the
    // free blocks *after* honoring the pledges already made to resident
    // prompts — a watermark that keeps co-resident prefills from
    // evicting each other. Only the fixed state blocks are allocated up
    // front; KV blocks follow the tokens as they are actually cached,
    // and decode growth past the pledge is what eviction handles. A
    // preloaded (disaggregated) request's prompt blocks all land at
    // once, so admission allocates its full pledge immediately.
    while (!waiting.empty() &&
           running.size() < static_cast<size_t>(cfg.maxBatch)) {
        size_t pick = sched.pickAdmission(waiting);
        Blocks outstanding{0};
        for (const RequestState &rs : running)
            if (rs.pledgedBlocks > rs.heldBlocks)
                outstanding += rs.pledgedBlocks - rs.heldBlocks;
        Blocks pledge =
            mapper.blocksFor(Tokens(waiting[pick].req.inputLen + 1));
        if (outstanding + pledge > blocks->freeBlocks())
            break;
        RequestState rs = waiting[pick];
        const Request &r = rs.req;
        const Blocks initial =
            rs.preloaded ? pledge : mapper.blocksFor(Tokens(0));
        bool ok = blocks->allocate(initial);
        PIMBA_ASSERT(ok, "admission allocation failed");
        rs.pledgedBlocks = pledge;
        rs.heldBlocks = initial;
        if (rs.firstAdmitted < Seconds(0.0))
            rs.firstAdmitted = clock;
        if (rs.preloaded) {
            // Prompt cached elsewhere and shipped in; first token was
            // already delivered by the prefill replica.
            rs.prefilled = r.inputLen;
            rs.generated = 1;
            rs.firstToken = clock;
        } else if (r.prefixLen > 0 && r.classId < prefixCache.size()) {
            // Warm per-class prefix cache: skip the shared leading
            // tokens, capped so at least one prompt token is prefilled
            // locally (the final chunk is what emits the first output
            // token).
            uint64_t hit = std::min(
                {prefixCache[r.classId], r.prefixLen, r.inputLen - 1});
            rs.prefilled = hit;
            rs.prefixSkipped = hit;
            load.outstandingTokens -= hit;
        }
        if (obs.tracer)
            obs.tracer->instant(
                obs.pid, requestLane(r.id), clock,
                rs.preemptions > 0 ? "readmitted (recompute)"
                : rs.preloaded     ? "admitted (preloaded)"
                                   : "admitted",
                "request",
                {{"queueing", (clock - r.arrival).value()},
                 {"preemptions", static_cast<double>(rs.preemptions)}});
        running.push_back(rs);
        waiting.erase(waiting.begin() +
                      static_cast<std::ptrdiff_t>(pick));
    }
    if (running.empty()) {
        const Request &r = waiting[sched.pickAdmission(waiting)].req;
        PIMBA_FATAL("request ", r.id, " needs ",
                    mapper.blocksFor(Tokens(r.inputLen + 1)).value(),
                    " blocks and can never fit the pool of ",
                    blocks->totalBlocks().value(),
                    " blocks under the budget of ",
                    report.memoryBudget.value(), " bytes");
    }
    report.peakBatch = std::max(report.peakBatch,
                                static_cast<int>(running.size()));

    // Let the policy compose the iteration, then allocate the blocks
    // its token production needs. Under memory pressure the most
    // recently admitted resident is preempted by eviction — blocks
    // freed, cached tokens discarded, re-queued at the head of the
    // waiting line to recompute — and the iteration is re-planned over
    // the survivors.
    while (true) {
        sched.planInto(running, plan);
        PIMBA_ASSERT(!plan.empty(), "iteration made no progress");

        Blocks extra{0};
        growScratch.clear();
        auto demand = [&](size_t i, uint64_t cached) {
            Blocks target = mapper.blocksFor(Tokens(cached));
            Blocks cur = running[i].heldBlocks;
            if (target > cur) {
                growScratch.emplace_back(i, target);
                extra += target - cur;
            }
        };
        for (size_t i : plan.decodeIdx)
            demand(i, running[i].cachedTokens() + 1);
        for (const PrefillSlice &s : plan.prefill) {
            const RequestState &rs = running[s.idx];
            uint64_t cached = rs.prefilled + s.tokens.value();
            if (cached >= rs.req.inputLen)
                cached = rs.req.inputLen + 1; // first output token
            demand(s.idx, cached);
        }
        // Decode and prefill residents are disjoint, so each resident
        // appears at most once and the growth is one grant.
        if (blocks->grow(extra)) {
            for (const auto &[i, target] : growScratch)
                running[i].heldBlocks = target;
            break;
        }

        if (running.size() == 1)
            PIMBA_FATAL("request ", running[0].req.id,
                        " can never fit: it alone outgrows the pool "
                        "of ", blocks->totalBlocks().value(),
                        " blocks under the budget of ",
                        report.memoryBudget.value(), " bytes");
        // running is kept in admission order, so the back is the most
        // recently admitted resident (lowest priority). With priority
        // tiers, victimize the lowest resident tier first and only
        // break ties by recency — the last (most recent) occurrence of
        // the minimum tier, which degenerates to exactly the back when
        // every class sits at tier 0.
        size_t victimIdx = running.size() - 1;
        if (!cfg.tierByClass.empty()) {
            int victimTier = tierOf(running[victimIdx].req.classId);
            for (size_t i = running.size() - 1; i-- > 0;) {
                int t = tierOf(running[i].req.classId);
                if (t < victimTier) {
                    victimTier = t;
                    victimIdx = i;
                }
            }
        }
        RequestState victim = running[victimIdx];
        running.erase(running.begin() +
                      static_cast<std::ptrdiff_t>(victimIdx));
        blocks->release(victim.heldBlocks);
        ++report.preemptions;
        if (obs.tracer)
            obs.tracer->instant(
                obs.pid, requestLane(victim.req.id), clock, "evicted",
                "request",
                {{"prefilled", static_cast<double>(victim.prefilled)},
                 {"generated", static_cast<double>(victim.generated)}});
        // Locally computed work becomes recompute debt and leaves the
        // delivered counter. A preloaded victim's shipped blocks are
        // assumed to be retained in the transfer staging buffer until
        // completion, so re-admission re-materializes them without a
        // second link transfer (re-fetch cost is not modeled).
        const LocalWork w =
            localWork(victim, report.generatedTokens, "eviction");
        report.generatedTokens -= w.delivered;
        report.recomputedTokens += w.computed;
        // Re-queue a fresh record: only the request, its preloaded flag
        // and its lifecycle survive. Its work is owed again in full.
        const RequestState requeued{.req = victim.req,
                                    .preloaded = victim.preloaded,
                                    .firstAdmitted = victim.firstAdmitted,
                                    .preemptions = victim.preemptions + 1};
        load.outstandingTokens +=
            outstandingOf(requeued) - outstandingOf(victim);
        enqueueWaiting(requeued, /*atSegmentFront=*/true);
    }

    // Cost the iteration: either a fused step (Sarathi) or decode and
    // prefill steps run blocked back-to-back (seed behavior).
    int decodeBatch = static_cast<int>(plan.decodeIdx.size());
    uint64_t decodeMean = 0;
    if (decodeBatch > 0) {
        uint64_t seqSum = 0;
        for (size_t i : plan.decodeIdx)
            seqSum += running[i].cachedTokens();
        decodeMean = seqSum / static_cast<uint64_t>(decodeBatch);
    }
    uint64_t prefillTokens = 0;
    uint64_t prefillPosWeighted = 0;
    for (const PrefillSlice &s : plan.prefill) {
        uint64_t tokens = s.tokens.value();
        prefillTokens += tokens;
        // Exact sum of the chunk's cache positions: token i of the
        // chunk sits at prefilled + i, so the chunk contributes
        // tokens * prefilled + tokens * (tokens - 1) / 2.
        prefillPosWeighted += tokens * running[s.idx].prefilled +
                              tokens * (tokens - 1) / 2;
    }

    substeps.clear();
    if (plan.fused) {
        uint64_t prefillMean =
            prefillTokens > 0 ? prefillPosWeighted / prefillTokens : 0;
        substeps.push_back(costs->mixedStep(decodeBatch, decodeMean,
                                            prefillTokens, prefillMean));
    } else {
        if (decodeBatch > 0)
            substeps.push_back(costs->decodeStep(decodeBatch, decodeMean));
        for (const PrefillSlice &s : plan.prefill)
            substeps.push_back(costs->prefillStep(
                s.tokens.value(), running[s.idx].prefilled));
    }
    double iterSeconds = 0.0;
    for (const StepCost &c : substeps)
        iterSeconds += c.seconds.value();
    report.prefillChunks += plan.prefill.size();

    PIMBA_ASSERT(iterSeconds > 0.0, "iteration made no progress");
    clock += Seconds(iterSeconds);
    ++report.iterations;
    if (obs.tracer)
        traceIteration(clock - Seconds(iterSeconds), Seconds(iterSeconds),
                       decodeBatch, prefillTokens);

    // Apply the iteration's token production.
    for (size_t i : plan.decodeIdx) {
        ++running[i].generated;
        ++report.generatedTokens;
    }
    load.outstandingTokens -= plan.decodeIdx.size();
    for (const PrefillSlice &s : plan.prefill) {
        RequestState &rs = running[s.idx];
        rs.prefilled += s.tokens.value();
        load.outstandingTokens -= s.tokens.value();
        if (obs.tracer)
            obs.tracer->instant(
                obs.pid, requestLane(rs.req.id), clock, "prefill chunk",
                "request",
                {{"tokens", static_cast<double>(s.tokens.value())},
                 {"prefilled", static_cast<double>(rs.prefilled)}});
        if (rs.prefillDone()) {
            // The final prefill chunk emits the first output token.
            rs.generated = 1;
            rs.firstToken = clock;
            ++report.generatedTokens;
            --load.outstandingTokens;
            if (rs.req.prefixLen > 0) {
                // This class's shared prefix is now cached here: later
                // arrivals of the class skip it at admission.
                uint64_t warm = std::min(rs.req.prefixLen,
                                         rs.req.inputLen - 1);
                if (rs.req.classId >= prefixCache.size())
                    prefixCache.resize(rs.req.classId + 1, 0);
                prefixCache[rs.req.classId] =
                    std::max(prefixCache[rs.req.classId], warm);
            }
            if (obs.tracer)
                obs.tracer->instant(
                    obs.pid, requestLane(rs.req.id), clock,
                    "first token", "request",
                    {{"ttft", (clock - rs.req.arrival).value()}});
        }
    }

    // Block-pool and memory high-water marks for this iteration.
    double util = blocks->utilization();
    utilSum += util;
    report.peakBlockUtil = std::max(report.peakBlockUtil, util);
    Bytes usage = weightBytes +
                  static_cast<double>(blocks->usedBlocks().value()) *
                      mapper.blockBytes;
    report.peakMemory = std::max(report.peakMemory, usage);
    PIMBA_ASSERT(usage <= report.memoryBudget + Bytes(1.0),
                 "memory budget exceeded: ", usage.value(), " > ",
                 report.memoryBudget.value());

    // Retire completed requests and free their blocks.
    for (size_t i = 0; i < running.size();) {
        RequestState &rs = running[i];
        if (!rs.done()) {
            ++i;
            continue;
        }
        CompletedRequest done;
        done.req = rs.req;
        done.ttft = rs.firstToken - rs.req.arrival;
        done.latency = clock - rs.req.arrival;
        done.tpot = rs.req.outputLen > 1
                        ? (clock - rs.firstToken) /
                              static_cast<double>(rs.req.outputLen - 1)
                        : Seconds(0.0);
        done.queueing = rs.firstAdmitted - rs.req.arrival;
        done.preemptions = rs.preemptions;
        if (obs.tracer)
            obs.tracer->end(obs.pid, requestLane(rs.req.id), clock);
        ++report.completedRequests;
        --load.queueDepth;
        load.tierPressure -= tierWeight(rs.req.classId);
        if (sink)
            sink->observe(done);
        else
            report.completed.push_back(done);
        blocks->release(rs.heldBlocks);
        running.erase(running.begin() +
                      static_cast<std::ptrdiff_t>(i));
    }

    // Load counters and the periodic timeline sample, on the
    // post-retire state of this iteration: the live running sums.
    const bool sampleDue =
        obs.timeline && obs.timeline->due(obs.timelineTrack, clock);
    if (obs.tracer || sampleDue) {
        const uint64_t depth = load.queueDepth;
        const uint64_t outstanding = load.outstandingTokens;
        const double liveUtil = blocks->utilization();
        if (obs.tracer) {
            obs.tracer->counter(obs.pid, clock, "queue depth",
                                static_cast<double>(depth));
            obs.tracer->counter(obs.pid, clock, "outstanding tokens",
                                static_cast<double>(outstanding));
            obs.tracer->counter(obs.pid, clock, "running",
                                static_cast<double>(running.size()));
            obs.tracer->counter(obs.pid, clock, "block util", liveUtil);
        }
        if (sampleDue)
            obs.timeline->sample(obs.timelineTrack, clock, depth,
                                 outstanding, running.size(), liveUtil);
    }
    armQuietRun();
    auditLedgers();
}

void
ServingEngine::armQuietRun()
{
    quietLeft = 0;
    if (obs.tracer || obs.timeline || !waiting.empty() || running.empty())
        return;
    uint64_t left = std::numeric_limits<uint64_t>::max();
    uint64_t seqSum = 0;
    const uint64_t bt = mapper.blockTokens.value();
    for (const RequestState &rs : running) {
        if (!rs.prefillDone())
            return;
        const uint64_t cached = rs.cachedTokens();
        // Stop one iteration short of the one that finishes the request
        // or grows its blocks: that one runs on the normal path.
        left = std::min(left, rs.req.outputLen - rs.generated - 1);
        if (bt > 0) {
            const uint64_t room =
                (rs.heldBlocks - mapper.fixedBlocks).value() * bt;
            left = std::min(left, room > cached ? room - cached : 0);
        }
        seqSum += cached;
    }
    quietLeft = left;
    quietMean = seqSum / running.size();
}

void
ServingEngine::fastForward(Seconds t)
{
    // Each pass is the quiet iteration iterate() would run, with the
    // same memo lookup and the same sums in the same order. Every
    // resident gains one token, so the decode mean rises by exactly
    // one; blocks, and so the peaks, do not move. A fused iteration
    // with no prefill is its decode step (mixedPoint), so every policy
    // takes the same memo entry.
    const int batch = static_cast<int>(running.size());
    const double util = blocks->utilization();
    uint64_t k = 0;
    while (k < quietLeft && clock < t &&
           (pendingArrivals.empty() ||
            pendingArrivals.front().req.arrival > clock)) {
        const StepCost c = costs->decodeStep(batch, quietMean + k);
        const double iterSeconds = c.seconds.value();
        PIMBA_ASSERT(iterSeconds > 0.0, "iteration made no progress");
        clock += Seconds(iterSeconds);
        utilSum += util;
        ++k;
    }
    for (RequestState &rs : running)
        rs.generated += k;
    report.iterations += k;
    report.fastForwardedIterations += k;
    report.generatedTokens += k * static_cast<uint64_t>(batch);
    load.outstandingTokens -= k * static_cast<uint64_t>(batch);
    quietLeft -= k;
    quietMean += k;
    auditLedgers();
}

void
ServingEngine::auditLedgers() const
{
#ifndef NDEBUG
    Blocks held{0};
    for (const RequestState &rs : running) {
        // Until its first local chunk, a prefix-cache hit counts its
        // skipped tokens as cached but holds no blocks for them (the
        // per-class prefix cache is synthetic, see prefixCache).
        const uint64_t charged = rs.prefilled > rs.prefixSkipped
                                     ? rs.cachedTokens()
                                     : rs.generated;
        PIMBA_ASSERT(rs.heldBlocks >= mapper.blocksFor(Tokens(charged)),
                     "block ledger: request ", rs.req.id, " holds ",
                     rs.heldBlocks.value(), " blocks for ", charged,
                     " cached tokens");
        held += rs.heldBlocks;
    }
    PIMBA_ASSERT(held == blocks->usedBlocks(),
                 "block ledger: residents hold ", held.value(),
                 " blocks but the pool has ", blocks->usedBlocks().value(),
                 " in use");

    LoadSignals walked;
    auto add = [&](const RequestState &rs) {
        walked.outstandingTokens += outstandingOf(rs);
        walked.tierPressure += tierWeight(rs.req.classId);
    };
    std::for_each(pendingArrivals.begin(), pendingArrivals.end(), add);
    std::for_each(waiting.begin(), waiting.end(), add);
    std::for_each(running.begin(), running.end(), add);
    PIMBA_ASSERT(load.queueDepth == waitingCount() + running.size() &&
                     load.outstandingTokens == walked.outstandingTokens &&
                     load.tierPressure == walked.tierPressure,
                 "load signals differ from a walk of the queues");
#endif
}

ServingReport
ServingEngine::run(const std::vector<Request> &trace,
                   CompletionSink *sink_)
{
    std::vector<Request> sorted = trace;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival < b.arrival;
                     });
    begin(sink_);
    for (const Request &r : sorted)
        submit(r);
    drain();
    return finish();
}

} // namespace pimba
