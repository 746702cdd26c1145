/**
 * @file
 * Request model of the request-level serving engine: one trace entry per
 * inference request (arrival time plus prompt/output lengths), the
 * engine's one record per request, and the per-request latency record
 * emitted on completion. This is the request-level regime the paper's
 * throughput studies (Figs. 12-16) and the NeuPIMs baseline assume, as
 * opposed to the steady-state per-step model of ServingSimulator.
 */

#ifndef PIMBA_SERVING_REQUEST_H
#define PIMBA_SERVING_REQUEST_H

#include <cstdint>

#include "core/units.h"

namespace pimba {

/** One inference request of a serving trace. */
struct Request
{
    uint64_t id = 0;
    Seconds arrival;        ///< since trace start
    uint64_t inputLen = 0;  ///< prompt tokens (prefill)
    uint64_t outputLen = 1; ///< tokens to generate (>= 1)
    /** Tenant class the trace generator sampled this request from
     *  (index into TraceConfig::classes; 0 for classless traces). The
     *  engine treats all classes alike — the field rides along so
     *  replayed traces and per-class analyses keep the attribution. */
    uint32_t classId = 0;
    /** Leading prompt tokens shared with every other request of this
     *  class (a synthetic per-class prefix id, e.g. a common system
     *  prompt). 0 means no shared prefix. An engine whose prefix cache
     *  is warm for the class skips prefilling min(prefixLen,
     *  inputLen - 1) tokens; the cache-affinity router scores replicas
     *  by how much of this prefix they hold. */
    uint64_t prefixLen = 0;
};

/**
 * Engine-side record of one submitted request, from submit() to retire
 * or cancel. Queued requests (pending or waiting) carry only the
 * request, its preloaded flag and the lifecycle fields that survive
 * eviction (firstAdmitted, preemptions); the rest is filled at
 * admission. A resident in prefill has !prefillDone(); one in decode
 * has prefillDone(). An evicted resident re-queues as a fresh record
 * that keeps only the surviving fields, so its cached tokens are
 * rebuilt from scratch (recompute) on re-admission.
 */
struct RequestState
{
    Request req;
    /** Prompt was prefilled elsewhere and its cached blocks imported
     *  (disaggregated serving): admission allocates the whole prompt's
     *  blocks up front and the request enters directly in decode. */
    bool preloaded = false;
    /** Absolute time of the first admission; re-admissions after an
     *  eviction keep it (negative while never admitted). */
    Seconds firstAdmitted{-1.0};
    uint64_t preemptions = 0; ///< evictions suffered so far
    uint64_t prefilled = 0;  ///< prompt tokens already processed
    uint64_t generated = 0;  ///< output tokens already produced
    /** Of `prefilled`, the leading tokens satisfied from the engine's
     *  per-class prefix cache at admission — cached, never computed
     *  locally, so eviction/cancellation accounting must not bill them
     *  as recomputed or wasted compute. */
    uint64_t prefixSkipped = 0;
    /** Blocks admission promised this request (prompt + first token);
     *  outstanding pledges gate further admissions so co-resident
     *  prompts can always be cached without evicting each other. */
    Blocks pledgedBlocks{0};
    /** Blocks of the engine's pool this request holds now: its side of
     *  the block ledger (BlockManager counts only the pool total). Set
     *  at admission, raised as tokens are cached, and returned to the
     *  pool in full on completion, eviction or cancellation. */
    Blocks heldBlocks{0};
    Seconds firstToken{-1.0}; ///< absolute time of the first output token

    /** Tokens currently held in the cache (prompt + generated). */
    uint64_t cachedTokens() const { return prefilled + generated; }
    bool prefillDone() const { return prefilled >= req.inputLen; }
    bool done() const { return generated >= req.outputLen; }
};

/** Latency record of one completed request. */
struct CompletedRequest
{
    Request req;
    Seconds ttft;    ///< time to first token (includes queueing)
    Seconds tpot;    ///< mean inter-token time after the first
    Seconds latency; ///< arrival to last token
    /** Arrival to *first* admission. Re-admissions after an eviction do
     *  not reset it: the wait a preemption adds shows up in ttft (and
     *  in preemptions), not here. */
    Seconds queueing;
    uint64_t preemptions = 0; ///< evictions this request suffered
};

} // namespace pimba

#endif // PIMBA_SERVING_REQUEST_H
