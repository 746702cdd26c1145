#include "serving/scheduler.h"

#include <algorithm>

#include "core/logging.h"

namespace pimba {

namespace {

/** Decode indices shared by every policy: all decode-phase residents. */
void
decodeResidents(const std::vector<RequestState> &running,
                std::vector<size_t> &idx)
{
    for (size_t i = 0; i < running.size(); ++i)
        if (running[i].prefillDone())
            idx.push_back(i);
}

/** Shared base holding the chunk/budget knobs. */
class SchedulerBase : public Scheduler
{
  public:
    SchedulerBase(Tokens chunk, Tokens budget)
        : chunk(chunk), budget(budget)
    {
        PIMBA_ASSERT(chunk >= Tokens(1), "prefill chunk must be positive");
    }

  protected:
    Tokens chunk;
    Tokens budget;
};

/**
 * One-prefill-chunk iteration shape shared by FCFS and SJF: every
 * decode-phase request steps, plus one chunk of the oldest-admitted
 * prefill-phase request, costed as separate back-to-back steps (the
 * seed engine's loop).
 */
class OneChunkScheduler : public SchedulerBase
{
  public:
    using SchedulerBase::SchedulerBase;

    void
    planInto(const std::vector<RequestState> &running,
             IterationPlan &plan) const override
    {
        plan.clear();
        decodeResidents(running, plan.decodeIdx);
        for (size_t i = 0; i < running.size(); ++i) {
            if (!running[i].prefillDone()) {
                Tokens left = Tokens(running[i].req.inputLen -
                                     running[i].prefilled);
                plan.prefill.push_back({i, std::min(chunk, left)});
                break;
            }
        }
    }
};

class FcfsScheduler : public OneChunkScheduler
{
  public:
    using OneChunkScheduler::OneChunkScheduler;

    SchedulerPolicy policy() const override
    {
        return SchedulerPolicy::FCFS;
    }

    size_t
    pickAdmission(const std::deque<RequestState> &) const override
    {
        return 0; // arrival order: the queue head
    }
};

class SjfScheduler : public OneChunkScheduler
{
  public:
    using OneChunkScheduler::OneChunkScheduler;

    SchedulerPolicy policy() const override
    {
        return SchedulerPolicy::SJF;
    }

    size_t
    pickAdmission(const std::deque<RequestState> &waiting) const override
    {
        // Shortest total work first; ties fall to the earlier arrival
        // (waiting is kept in arrival order, evictions at the front).
        size_t best = 0;
        uint64_t best_len =
            waiting[0].req.inputLen + waiting[0].req.outputLen;
        for (size_t i = 1; i < waiting.size(); ++i) {
            uint64_t len = waiting[i].req.inputLen + waiting[i].req.outputLen;
            if (len < best_len) {
                best = i;
                best_len = len;
            }
        }
        return best;
    }
};

class SarathiScheduler : public SchedulerBase
{
  public:
    using SchedulerBase::SchedulerBase;

    SchedulerPolicy policy() const override
    {
        return SchedulerPolicy::Sarathi;
    }

    size_t
    pickAdmission(const std::deque<RequestState> &) const override
    {
        return 0; // FCFS admission; fairness comes from chunk packing
    }

    void
    planInto(const std::vector<RequestState> &running,
             IterationPlan &plan) const override
    {
        plan.clear();
        plan.fused = true;
        decodeResidents(running, plan.decodeIdx);
        // Decode tokens are never throttled (one per resident decode);
        // the leftover budget is packed with prefill chunks from as
        // many prompt-phase requests as fit, oldest admitted first.
        Tokens spent = Tokens(plan.decodeIdx.size());
        for (size_t i = 0; i < running.size() && spent < budget; ++i) {
            if (running[i].prefillDone())
                continue;
            Tokens left = Tokens(running[i].req.inputLen -
                                 running[i].prefilled);
            Tokens grant = std::min({chunk, left, budget - spent});
            plan.prefill.push_back({i, grant});
            spent += grant;
        }
    }
};

} // namespace

std::string
policyName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::FCFS:
        return "fcfs";
      case SchedulerPolicy::SJF:
        return "sjf";
      case SchedulerPolicy::Sarathi:
        return "sarathi";
    }
    PIMBA_PANIC("unknown scheduler policy");
}

const std::vector<SchedulerPolicy> &
allPolicies()
{
    static const std::vector<SchedulerPolicy> kAll = {
        SchedulerPolicy::FCFS, SchedulerPolicy::SJF,
        SchedulerPolicy::Sarathi};
    return kAll;
}

std::unique_ptr<Scheduler>
makeScheduler(SchedulerPolicy policy, Tokens prefill_chunk,
              Tokens token_budget)
{
    switch (policy) {
      case SchedulerPolicy::FCFS:
        return std::make_unique<FcfsScheduler>(prefill_chunk,
                                               token_budget);
      case SchedulerPolicy::SJF:
        return std::make_unique<SjfScheduler>(prefill_chunk,
                                              token_budget);
      case SchedulerPolicy::Sarathi:
        return std::make_unique<SarathiScheduler>(prefill_chunk,
                                                  token_budget);
    }
    PIMBA_PANIC("unknown scheduler policy");
}

} // namespace pimba
