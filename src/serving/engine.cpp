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
    if (cfg.policy == SchedulerPolicy::Sarathi) {
        // The fused-step memo packs (decode batch, prefill tokens) into
        // its key; reject configs that could overflow it mid-run.
        Tokens budget = resolvedIterTokenBudget(cfg);
        if (cfg.maxBatch >= (1 << 12))
            return "engine: the Sarathi policy requires maxBatch < "
                   "4096, got " +
                   std::to_string(cfg.maxBatch);
        if (budget >= Tokens(1ull << 16))
            return "engine: the Sarathi policy requires an iteration "
                   "token budget < 65536, got " +
                   std::to_string(budget.value());
    }
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
    sched = makeScheduler(cfg.policy, cfg.prefillChunk,
                          cfg.iterTokenBudget);
}

void
ServingEngine::attachObservers(const EngineObservers &o)
{
    obs = o;
    if (obs.tracer) {
        obs.tracer->threadName(obs.pid, kTraceIterTid, "iterations");
        obs.tracer->threadName(obs.pid, kTraceGpuTid, "gpu");
        obs.tracer->threadName(obs.pid, kTracePimTid, "pim");
        obs.tracer->threadName(obs.pid, kTraceSyncTid, "sync");
    }
}

void
ServingEngine::tracePhaseSlices(Seconds start, const StepPhases &ph,
                                const std::string &name)
{
    Tracer &t = *obs.tracer;
    const bool overlapped = costs->simulator().system().executionMode ==
                            ExecutionMode::Overlapped;
    // Blocked mode runs gpu -> pim -> sync back-to-back; overlapped
    // mode launches gpu and pim together and syncs after the longer
    // one — matching StepResult::blockedSeconds/overlappedSeconds.
    Seconds pimStart = overlapped ? start : start + Seconds(ph.gpu);
    Seconds syncStart = overlapped
                            ? start + Seconds(std::max(ph.gpu, ph.pim))
                            : start + Seconds(ph.gpu + ph.pim);
    if (ph.gpu > 0.0)
        t.complete(obs.pid, kTraceGpuTid, start, Seconds(ph.gpu), name,
                   "gpu");
    if (ph.pim > 0.0)
        t.complete(obs.pid, kTracePimTid, pimStart, Seconds(ph.pim),
                   name, "pim");
    if (ph.sync > 0.0)
        t.complete(obs.pid, kTraceSyncTid, syncStart, Seconds(ph.sync),
                   name, "sync");
}

void
ServingEngine::traceIteration(Seconds start, Seconds dur, int decodeBatch,
                              uint64_t decodeMean, uint64_t prefillTokens,
                              uint64_t prefillMean)
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
    if (plan.fused) {
        tracePhaseSlices(start,
                         costs->mixedPhases(decodeBatch, decodeMean,
                                            prefillTokens, prefillMean),
                         "fused");
        return;
    }
    // Unfused substeps run sequentially (seed behavior): the decode
    // step first, then each prefill chunk, each internally split into
    // its gpu/pim/sync phases.
    Seconds cursor = start;
    if (decodeBatch > 0) {
        tracePhaseSlices(cursor,
                         costs->decodePhases(decodeBatch, decodeMean),
                         "decode");
        cursor += Seconds(costs->decodeSeconds(decodeBatch, decodeMean));
    }
    for (const PrefillSlice &s : plan.prefill) {
        uint64_t pos = running[s.idx].prefilled;
        tracePhaseSlices(cursor, costs->prefillPhases(s.tokens.value(), pos),
                         "prefill");
        cursor += Seconds(costs->prefillSeconds(s.tokens.value(), pos));
    }
}

void
ServingEngine::begin()
{
    PIMBA_ASSERT(!active, "begin() inside an open session");
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
    preloadedIds.clear();
    life.clear();
    prefixCache.clear();
    active = true;
}

void
ServingEngine::submit(const Request &r)
{
    PIMBA_ASSERT(active, "submit() outside a session");
    PIMBA_ASSERT(r.inputLen >= 1 && r.outputLen >= 1, "request ", r.id,
                 " has empty prompt or output");
    PIMBA_ASSERT(pendingArrivals.empty() ||
                     r.arrival >= pendingArrivals.back().arrival,
                 "arrivals must be submitted in non-decreasing order");
    pendingArrivals.push_back(r);
    ++submitted;
    if (obs.tracer) {
        // One lane per request: open its span at arrival time; the
        // retire path closes it at completion.
        int64_t lane = requestLane(r.id);
        obs.tracer->threadName(obs.pid, lane,
                               "req " + std::to_string(r.id));
        obs.tracer->begin(
            obs.pid, lane, r.arrival, "req " + std::to_string(r.id),
            "request",
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
    preloadedIds.insert(r.id);
}

int
ServingEngine::tierOf(uint32_t classId) const
{
    return classId < cfg.tierByClass.size() ? cfg.tierByClass[classId]
                                            : 0;
}

void
ServingEngine::enqueueWaiting(const Request &r, bool atSegmentFront)
{
    if (cfg.tierByClass.empty()) {
        // Untiered: the exact FIFO (and eviction push_front) the
        // engine has always had, byte-identical.
        if (atSegmentFront)
            waiting.push_front(r);
        else
            waiting.push_back(r);
        return;
    }
    // The queue is kept ordered by tier, highest first, FIFO within a
    // tier. A new arrival joins the *back* of its tier segment; an
    // evicted request rejoins the *front* of its segment (it keeps its
    // recompute-next priority among peers but never jumps a higher
    // tier).
    const int tier = tierOf(r.classId);
    size_t pos = 0;
    if (atSegmentFront) {
        while (pos < waiting.size() &&
               tierOf(waiting[pos].classId) > tier)
            ++pos;
    } else {
        while (pos < waiting.size() &&
               tierOf(waiting[pos].classId) >= tier)
            ++pos;
    }
    waiting.insert(waiting.begin() + static_cast<std::ptrdiff_t>(pos),
                   r);
}

void
ServingEngine::revealArrivals()
{
    while (!pendingArrivals.empty() &&
           pendingArrivals.front().arrival <= clock) {
        enqueueWaiting(pendingArrivals.front(), /*atSegmentFront=*/false);
        pendingArrivals.pop_front();
    }
}

Seconds
ServingEngine::advanceTo(Seconds t)
{
    PIMBA_ASSERT(active, "advanceTo() outside a session");
    while (true) {
        revealArrivals();
        if (running.empty() && waiting.empty()) {
            // Idle: jump to the next arrival if it is due by t.
            if (!pendingArrivals.empty() &&
                pendingArrivals.front().arrival <= t) {
                clock = std::max(clock, pendingArrivals.front().arrival);
                continue;
            }
            break;
        }
        if (clock >= t)
            break;
        iterate();
    }
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
    // Under streamOnly the per-request records were never retained, so
    // computeMetrics saw an empty vector; the counters are still exact.
    // Percentile summaries live in the attached StreamingMetrics.
    if (obs.streamOnly && obs.stream) {
        report.metrics.requests = report.completedRequests;
        report.metrics.requestsPerSec =
            report.makespan > Seconds(0.0)
                ? RequestsPerSecond(
                      static_cast<double>(report.completedRequests) /
                      report.makespan.value())
                : RequestsPerSecond(0.0);
    }
    active = false;
    return std::move(report);
}

size_t
ServingEngine::waitingCount() const
{
    return waiting.size() + pendingArrivals.size();
}

Seconds
ServingEngine::nextEventTime() const
{
    if (!running.empty() || !waiting.empty())
        return clock; // resident or revealed work: actionable now
    if (!pendingArrivals.empty())
        return pendingArrivals.front().arrival;
    return Seconds(std::numeric_limits<double>::infinity());
}

size_t
ServingEngine::queueDepth() const
{
    return waitingCount() + running.size();
}

uint64_t
ServingEngine::outstandingTokens() const
{
    uint64_t total = 0;
    auto queued = [&](const Request &r) {
        // A preloaded prompt is already computed; only its remaining
        // decode steps are outstanding work.
        total += preloadedIds.count(r.id) ? r.outputLen - 1
                                          : r.inputLen + r.outputLen;
    };
    for (const Request &r : waiting)
        queued(r);
    for (const Request &r : pendingArrivals)
        queued(r);
    for (const RequestState &rs : running)
        total += (rs.req.inputLen - rs.prefilled) +
                 (rs.req.outputLen - rs.generated);
    return total;
}

uint64_t
ServingEngine::tierPressure() const
{
    if (cfg.tierByClass.empty())
        return 0;
    uint64_t total = 0;
    auto weight = [&](uint32_t classId) {
        total += static_cast<uint64_t>(tierOf(classId)) + 1;
    };
    for (const Request &r : waiting)
        weight(r.classId);
    for (const Request &r : pendingArrivals)
        weight(r.classId);
    for (const RequestState &rs : running)
        weight(rs.req.classId);
    return total;
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
    for (const Request &r : waiting)
        oldest = std::min(oldest, r.arrival);
    return oldest;
}

bool
ServingEngine::cancel(uint64_t id, Seconds now, bool onlyIfNoFirstToken)
{
    PIMBA_ASSERT(active, "cancel() outside a session");
    auto closeLane = [&] {
        if (obs.tracer)
            obs.tracer->end(obs.pid, requestLane(id),
                            std::max(now, clock));
    };
    // Queued (never admitted, or evicted back to the queue): nothing
    // was computed since the last eviction — the eviction path already
    // billed any discarded work as recompute debt — so only the
    // bookkeeping goes.
    auto dropQueued = [&](std::deque<Request> &q) {
        for (auto it = q.begin(); it != q.end(); ++it) {
            if (it->id != id)
                continue;
            q.erase(it);
            ++report.cancelledRequests;
            life.erase(id);
            preloadedIds.erase(id);
            closeLane();
            return true;
        }
        return false;
    };
    if (dropQueued(waiting) || dropQueued(pendingArrivals))
        return true;

    for (size_t i = 0; i < running.size(); ++i) {
        RequestState &rs = running[i];
        if (rs.req.id != id)
            continue;
        if (onlyIfNoFirstToken && rs.firstToken >= Seconds(0.0))
            return false; // TTFT deadline already met
        // Locally computed work becomes waste and leaves the delivered
        // counter. A preloaded request's prompt and first token were
        // produced (and counted) on its prefill replica; only local
        // decode steps are this replica's to un-count — with the same
        // wrap clamp the eviction path needs. Prefix-cache-skipped
        // prompt tokens were never computed, so they are not waste.
        uint64_t undelivered = 0;
        uint64_t wasted = 0;
        if (rs.preloaded) {
            undelivered = rs.generated > 0 ? rs.generated - 1 : 0;
            wasted = undelivered;
        } else {
            PIMBA_ASSERT(rs.prefilled >= rs.prefixSkipped,
                         "prefix-skip accounting underflow on cancel");
            undelivered = rs.generated;
            wasted = (rs.prefilled - rs.prefixSkipped) + rs.generated;
        }
        PIMBA_ASSERT(report.generatedTokens >= undelivered,
                     "delivered-token counter underflow on cancel");
        report.generatedTokens -= undelivered;
        report.wastedTokens += wasted;
        ++report.cancelledRequests;
        blocks->release(id);
        life.erase(id);
        preloadedIds.erase(id);
        closeLane();
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
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
        size_t pick = sched->pickAdmission(waiting);
        const Request &r = waiting[pick];
        Blocks outstanding{0};
        for (const RequestState &rs : running) {
            Blocks held = blocks->holding(rs.req.id);
            if (rs.pledgedBlocks > held)
                outstanding += rs.pledgedBlocks - held;
        }
        const bool preloaded = preloadedIds.count(r.id) > 0;
        Blocks pledge = mapper.blocksFor(Tokens(r.inputLen + 1));
        if (outstanding + pledge > blocks->freeBlocks())
            break;
        bool ok = blocks->allocate(
            r.id, preloaded ? pledge : mapper.blocksFor(Tokens(0)));
        PIMBA_ASSERT(ok, "admission allocation failed");
        RequestState rs;
        rs.req = r;
        rs.preloaded = preloaded;
        rs.pledgedBlocks = pledge;
        rs.admitted = clock;
        if (preloaded) {
            // Prompt cached elsewhere and shipped in; first token was
            // already delivered by the prefill replica.
            rs.phase = RequestPhase::Decode;
            rs.prefilled = r.inputLen;
            rs.generated = 1;
            rs.firstToken = clock;
        } else {
            rs.phase = RequestPhase::Prefill;
            if (r.prefixLen > 0 && r.classId < prefixCache.size()) {
                // Warm per-class prefix cache: skip the shared leading
                // tokens, capped so at least one prompt token is
                // prefilled locally (the final chunk is what emits the
                // first output token).
                uint64_t hit = std::min(
                    {prefixCache[r.classId], r.prefixLen,
                     r.inputLen - 1});
                rs.prefilled = hit;
                rs.prefixSkipped = hit;
            }
        }
        Lifecycle &lc = life[r.id];
        if (lc.firstAdmitted < Seconds(0.0))
            lc.firstAdmitted = clock;
        if (obs.tracer)
            obs.tracer->instant(
                obs.pid, requestLane(rs.req.id), clock,
                lc.preemptions > 0 ? "readmitted (recompute)"
                : preloaded        ? "admitted (preloaded)"
                                   : "admitted",
                "request",
                {{"queueing", (clock - rs.req.arrival).value()},
                 {"preemptions",
                  static_cast<double>(lc.preemptions)}});
        running.push_back(rs);
        waiting.erase(waiting.begin() +
                      static_cast<std::ptrdiff_t>(pick));
    }
    if (running.empty()) {
        const Request &r = waiting[sched->pickAdmission(waiting)];
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
        sched->planInto(running, plan);
        PIMBA_ASSERT(!plan.empty(), "iteration made no progress");

        Blocks extra{0};
        growScratch.clear();
        auto demand = [&](const RequestState &rs, uint64_t cached) {
            Blocks target = mapper.blocksFor(Tokens(cached));
            Blocks cur = blocks->holding(rs.req.id);
            if (target > cur) {
                growScratch.emplace_back(rs.req.id, target.value());
                extra += target - cur;
            }
        };
        for (size_t i : plan.decodeIdx)
            demand(running[i], running[i].cachedTokens() + 1);
        for (const PrefillSlice &s : plan.prefill) {
            const RequestState &rs = running[s.idx];
            uint64_t cached = rs.prefilled + s.tokens.value();
            if (cached >= rs.req.inputLen)
                cached = rs.req.inputLen + 1; // first output token
            demand(rs, cached);
        }
        if (extra <= blocks->freeBlocks()) {
            for (const auto &[id, target] : growScratch) {
                bool ok = blocks->growTo(id, Blocks(target));
                PIMBA_ASSERT(ok, "planned growth failed");
            }
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
        blocks->release(victim.req.id);
        ++report.preemptions;
        ++life[victim.req.id].preemptions;
        if (obs.tracer)
            obs.tracer->instant(
                obs.pid, requestLane(victim.req.id), clock, "evicted",
                "request",
                {{"prefilled", static_cast<double>(victim.prefilled)},
                 {"generated", static_cast<double>(victim.generated)}});
        // A preloaded victim's prompt and first token were produced
        // (and counted) by its prefill replica, not here: only locally
        // decoded tokens net out of the delivered count and become
        // recompute debt. The shipped blocks themselves are assumed to
        // be retained in the transfer staging buffer until completion,
        // so re-admission re-materializes them without a second link
        // transfer (re-fetch cost is not modeled).
        if (victim.preloaded) {
            // Clamp: a preloaded victim evicted before its first local
            // decode step still sits at generated == 1 (the imported
            // first token) — and must never go below. Subtracting an
            // unclamped `generated - 1` would wrap the unsigned counter
            // if a zero-generated state ever reached here, corrupting
            // both counters for the rest of the run.
            uint64_t locallyDecoded =
                victim.generated > 0 ? victim.generated - 1 : 0;
            PIMBA_ASSERT(report.generatedTokens >= locallyDecoded,
                         "delivered-token counter underflow on "
                         "preloaded eviction");
            report.recomputedTokens += locallyDecoded;
            report.generatedTokens -= locallyDecoded;
        } else {
            // Prefix-cache-skipped prompt tokens were never computed
            // here, so they are not recompute debt — re-admission will
            // skip them again from the still-warm cache.
            PIMBA_ASSERT(victim.prefilled >= victim.prefixSkipped,
                         "prefix-skip accounting underflow on eviction");
            PIMBA_ASSERT(report.generatedTokens >= victim.generated,
                         "delivered-token counter underflow on eviction");
            report.recomputedTokens +=
                (victim.prefilled - victim.prefixSkipped) +
                victim.generated;
            report.generatedTokens -= victim.generated;
        }
        enqueueWaiting(victim.req, /*atSegmentFront=*/true);
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

    double iterSeconds = 0.0;
    if (plan.fused) {
        uint64_t prefillMean =
            prefillTokens > 0 ? prefillPosWeighted / prefillTokens : 0;
        iterSeconds = costs->mixedSeconds(decodeBatch, decodeMean,
                                          prefillTokens, prefillMean);
    } else {
        if (decodeBatch > 0)
            iterSeconds += costs->decodeSeconds(decodeBatch, decodeMean);
        for (const PrefillSlice &s : plan.prefill)
            iterSeconds += costs->prefillSeconds(s.tokens.value(),
                                                 running[s.idx].prefilled);
    }
    report.prefillChunks += plan.prefill.size();

    PIMBA_ASSERT(iterSeconds > 0.0, "iteration made no progress");
    clock += Seconds(iterSeconds);
    ++report.iterations;
    if (obs.tracer)
        traceIteration(clock - Seconds(iterSeconds), Seconds(iterSeconds),
                       decodeBatch, decodeMean, prefillTokens,
                       prefillTokens > 0
                           ? prefillPosWeighted / prefillTokens
                           : 0);

    // Apply the iteration's token production.
    for (size_t i : plan.decodeIdx) {
        ++running[i].generated;
        ++report.generatedTokens;
    }
    for (const PrefillSlice &s : plan.prefill) {
        RequestState &rs = running[s.idx];
        rs.prefilled += s.tokens.value();
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
            rs.phase = RequestPhase::Decode;
            ++report.generatedTokens;
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
        rs.finished = clock;
        Lifecycle &lc = life[rs.req.id];
        CompletedRequest done;
        done.req = rs.req;
        done.ttft = rs.firstToken - rs.req.arrival;
        done.latency = rs.finished - rs.req.arrival;
        done.tpot = rs.req.outputLen > 1
                        ? (rs.finished - rs.firstToken) /
                              static_cast<double>(rs.req.outputLen - 1)
                        : Seconds(0.0);
        done.queueing = lc.firstAdmitted - rs.req.arrival;
        done.preemptions = lc.preemptions;
        if (obs.tracer)
            obs.tracer->end(obs.pid, requestLane(rs.req.id), clock);
        if (obs.stream)
            obs.stream->observe(done);
        ++report.completedRequests;
        // streamOnly without a collector would drop the record on the
        // floor; keep it unless someone is actually aggregating.
        if (!(obs.streamOnly && obs.stream))
            report.completed.push_back(done);
        life.erase(rs.req.id);
        preloadedIds.erase(rs.req.id);
        blocks->release(rs.req.id);
        running.erase(running.begin() +
                      static_cast<std::ptrdiff_t>(i));
    }

    // Load counters and the periodic timeline sample, on the
    // post-retire state of this iteration. queueDepth() and
    // outstandingTokens() walk the queues, so they run only with an
    // observer attached.
    if (obs.tracer) {
        double liveUtil = blocks->utilization();
        obs.tracer->counter(obs.pid, clock, "queue depth",
                            static_cast<double>(queueDepth()));
        obs.tracer->counter(obs.pid, clock, "outstanding tokens",
                            static_cast<double>(outstandingTokens()));
        obs.tracer->counter(obs.pid, clock, "running",
                            static_cast<double>(running.size()));
        obs.tracer->counter(obs.pid, clock, "block util", liveUtil);
    }
    if (obs.timeline)
        obs.timeline->sample(obs.timelineTrack, clock, queueDepth(),
                             outstandingTokens(), running.size(),
                             blocks->utilization());
}

ServingReport
ServingEngine::run(const std::vector<Request> &trace)
{
    std::vector<Request> sorted = trace;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival < b.arrival;
                     });
    begin();
    for (const Request &r : sorted)
        submit(r);
    drain();
    return finish();
}

} // namespace pimba
