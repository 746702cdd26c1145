#include "serving/scheduler.h"

#include <algorithm>

namespace pimba {

const std::vector<SchedulerPolicy> &
allPolicies()
{
    static const std::vector<SchedulerPolicy> kAll = {
        SchedulerPolicy::FCFS, SchedulerPolicy::SJF,
        SchedulerPolicy::Sarathi};
    return kAll;
}

size_t
Scheduler::pickAdmission(const std::deque<RequestState> &waiting) const
{
    if (policy != SchedulerPolicy::SJF)
        return 0; // arrival order: the queue head
    // Shortest total work first; ties fall to the earlier arrival
    // (waiting is kept in arrival order, evictions at the front).
    size_t best = 0;
    uint64_t best_len = waiting[0].req.inputLen + waiting[0].req.outputLen;
    for (size_t i = 1; i < waiting.size(); ++i) {
        uint64_t len = waiting[i].req.inputLen + waiting[i].req.outputLen;
        if (len < best_len) {
            best = i;
            best_len = len;
        }
    }
    return best;
}

void
Scheduler::planInto(const std::vector<RequestState> &running,
                    IterationPlan &plan) const
{
    plan.clear();
    plan.fused = policy == SchedulerPolicy::Sarathi;
    for (size_t i = 0; i < running.size(); ++i)
        if (running[i].prefillDone())
            plan.decodeIdx.push_back(i);
    // FCFS and SJF run one chunk of the oldest-admitted prompt as its
    // own step. Sarathi packs the budget the decodes leave with chunks
    // from as many prompts as fit, oldest admitted first.
    const Tokens decodes = Tokens(plan.decodeIdx.size());
    Tokens room = !plan.fused       ? chunk
                  : budget > decodes ? budget - decodes
                                     : Tokens(0);
    for (size_t i = 0; i < running.size() && room > Tokens(0); ++i) {
        if (running[i].prefillDone())
            continue;
        Tokens left = Tokens(running[i].req.inputLen - running[i].prefilled);
        Tokens grant = std::min({chunk, left, room});
        plan.prefill.push_back({i, grant});
        room = plan.fused ? room - grant : Tokens(0);
    }
}

} // namespace pimba
