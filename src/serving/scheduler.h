/**
 * @file
 * Iteration-level scheduling policies for the serving engine.
 *
 * A Scheduler makes the two decisions that shape every engine
 * iteration: which waiting request to admit next, and how to compose
 * the iteration's batch out of the resident requests (which decode
 * steps run, which prefill chunks run, and whether the two are fused
 * into one launch). The three policies differ only in admission order
 * and in how many prefill chunks one iteration packs:
 *
 *  - FCFS: arrival-order admission, at most one prefill chunk per
 *    iteration run as a separate step — the seed engine's behavior.
 *  - SJF: shortest-job-first admission (by total input+output tokens,
 *    an oracle the simulator legitimately has); iteration composition
 *    as FCFS.
 *  - Sarathi: arrival-order admission, but each iteration packs
 *    multiple prefill chunks *together with* the decode batch under a
 *    per-iteration token budget and fuses them into a single step, so
 *    a long prompt neither stalls decodes nor head-of-line blocks the
 *    prompts behind it (Sarathi-style chunked-prefill piggybacking).
 */

#ifndef PIMBA_SERVING_SCHEDULER_H
#define PIMBA_SERVING_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/names.h"
#include "core/units.h"
#include "serving/request.h"

namespace pimba {

/** Selectable scheduling policy. */
enum class SchedulerPolicy
{
    FCFS,    ///< arrival order, one prefill chunk per iteration
    SJF,     ///< shortest total job first, one prefill chunk per iteration
    Sarathi, ///< fused decode + budgeted multi-request prefill chunks
};

inline constexpr Named<SchedulerPolicy> kSchedulerPolicyNames[] = {
    {SchedulerPolicy::FCFS, "fcfs"},
    {SchedulerPolicy::SJF, "sjf"},
    {SchedulerPolicy::Sarathi, "sarathi"},
};

inline std::string
policyName(SchedulerPolicy policy)
{
    return std::string(nameOf(kSchedulerPolicyNames, policy));
}

/** All policies, for sweeps and tests. */
const std::vector<SchedulerPolicy> &allPolicies();

/** One prefill chunk scheduled for the coming iteration. */
struct PrefillSlice
{
    size_t idx = 0; ///< index into the engine's running vector
    Tokens tokens;  ///< prompt tokens to process this iteration
};

/** Composition of one engine iteration. */
struct IterationPlan
{
    std::vector<size_t> decodeIdx;    ///< decode-phase running indices
    std::vector<PrefillSlice> prefill; ///< prefill chunks this iteration
    /** Cost decode + prefill as one fused step instead of separate
     *  back-to-back steps (amortizes the per-step weight pass). */
    bool fused = false;

    bool empty() const { return decodeIdx.empty() && prefill.empty(); }

    /** Reset to an empty plan, keeping the vectors' capacity. */
    void clear()
    {
        decodeIdx.clear();
        prefill.clear();
        fused = false;
    }
};

/**
 * Iteration-level scheduling policy: the policy and the two knobs it
 * reads. @c chunk caps one request's prompt tokens per iteration.
 * @c budget sizes a Sarathi iteration: decode tokens (one per
 * decode-phase resident) are never throttled and count against the
 * budget first; only the *remainder* is packed with prefill chunks. An
 * iteration whose decode batch alone reaches the budget therefore runs
 * over budget and schedules no prefill. FCFS and SJF ignore the budget.
 */
struct Scheduler
{
    SchedulerPolicy policy = SchedulerPolicy::FCFS;
    Tokens chunk;
    Tokens budget;

    /**
     * Index into @p waiting of the request to try admitting next: the
     * queue head, or under SJF the shortest total job (ties to the
     * earlier). Admission is head-of-line: if the picked request does
     * not fit, the engine stops admitting rather than skipping it.
     */
    size_t pickAdmission(const std::deque<RequestState> &waiting) const;

    /**
     * Compose the coming iteration over the resident requests into
     * @p out (cleared first). Plan vectors are reused across
     * iterations, so the steady state of the inner loop allocates
     * nothing.
     */
    void planInto(const std::vector<RequestState> &running,
                  IterationPlan &out) const;
};

} // namespace pimba

#endif // PIMBA_SERVING_SCHEDULER_H
