#include "dram/pim_scheduler.h"

#include <algorithm>

#include "core/logging.h"

namespace pimba {

PimCommandScheduler::PimCommandScheduler(const HbmConfig &config,
                                         bool keep_trace)
    : cfg(config), keepTrace(keep_trace),
      nextRefresh(Cycles(config.timing.tREFI))
{}

void
PimCommandScheduler::record(DramCommand cmd, Cycles cycle, int bank)
{
    lastIssue = cycle;
    if (keepTrace)
        records.push_back({cmd, cycle, bank});
}

Cycles
PimCommandScheduler::issueAct4()
{
    const auto &t = cfg.timing;
    Cycles at = std::max({cmdBusFree, bankReady,
                          anyAct4 ? lastAct4 + Cycles(t.tFAW)
                                  : Cycles(0)});
    lastAct4 = at;
    anyAct4 = true;
    maxActReady = std::max(maxActReady, at);
    rowsOpen = true;
    cmdBusFree = at + Cycles(1);
    frontier = std::max(frontier, at + Cycles(t.tRCD));
    ++stats.act4;
    record(DramCommand::ACT4, at);
    return at;
}

Cycles
PimCommandScheduler::issueRegWrite()
{
    const auto &t = cfg.timing;
    Cycles at = std::max(cmdBusFree, dataBusFree);
    dataBusFree = at + Cycles(t.burstCycles);
    cmdBusFree = at + Cycles(1);
    frontier = std::max(frontier, dataBusFree);
    ++stats.regWrite;
    record(DramCommand::REG_WRITE, at);
    return at;
}

Cycles
PimCommandScheduler::issueComp()
{
    const auto &t = cfg.timing;
    PIMBA_ASSERT(rowsOpen, "COMP issued with no activated rows");
    Cycles at = std::max({cmdBusFree,
                          maxActReady + Cycles(t.tRCD),
                          anyComp ? lastComp + Cycles(t.tCCD_L)
                                  : Cycles(0)});
    lastComp = at;
    anyComp = true;
    cmdBusFree = at + Cycles(1);
    frontier = std::max(frontier, at + Cycles(t.tCCD_L));
    ++stats.comp;
    record(DramCommand::COMP, at);
    return at;
}

Cycles
PimCommandScheduler::issueResultRead()
{
    const auto &t = cfg.timing;
    // COMP both reads and writes the row buffer, so the register drain
    // respects both tRTP and tWR relative to the last COMP (Section 5.5).
    Cycles after_comp = anyComp
        ? lastComp + Cycles(std::max(t.tRTP_L, t.tWR))
        : Cycles(0);
    Cycles at = std::max({cmdBusFree, dataBusFree, after_comp});
    dataBusFree = at + Cycles(t.burstCycles);
    cmdBusFree = at + Cycles(1);
    frontier = std::max(frontier, dataBusFree);
    ++stats.resultRead;
    record(DramCommand::RESULT_READ, at);
    return at;
}

template <Cycles (PimCommandScheduler::*One)()>
bool
PimCommandScheduler::issueRunHead(uint64_t k)
{
    uint64_t per_command = keepTrace ? k : std::min<uint64_t>(k, 1);
    for (uint64_t i = 0; i < per_command; ++i)
        (this->*One)();
    return per_command < k;
}

Cycles
PimCommandScheduler::runEnd(uint64_t k, int spacing) const
{
    return lastIssue + Cycles(std::max(1, spacing)) * (k - 1);
}

void
PimCommandScheduler::finishDataBusRun(uint64_t k, uint64_t &count)
{
    Cycles at = runEnd(k, cfg.timing.burstCycles);
    dataBusFree = at + Cycles(cfg.timing.burstCycles);
    cmdBusFree = at + Cycles(1);
    frontier = std::max(frontier, dataBusFree);
    count += k - 1;
    lastIssue = at;
}

void
PimCommandScheduler::issueRegWrites(uint64_t k)
{
    if (issueRunHead<&PimCommandScheduler::issueRegWrite>(k))
        finishDataBusRun(k, stats.regWrite);
}

void
PimCommandScheduler::issueComps(uint64_t k)
{
    if (!issueRunHead<&PimCommandScheduler::issueComp>(k))
        return;
    Cycles at = runEnd(k, cfg.timing.tCCD_L);
    lastComp = at;
    cmdBusFree = at + Cycles(1);
    frontier = std::max(frontier, at + Cycles(cfg.timing.tCCD_L));
    stats.comp += k - 1;
    lastIssue = at;
}

void
PimCommandScheduler::issueResultReads(uint64_t k)
{
    if (issueRunHead<&PimCommandScheduler::issueResultRead>(k))
        finishDataBusRun(k, stats.resultRead);
}

Cycles
PimCommandScheduler::issuePrecharges()
{
    const auto &t = cfg.timing;
    PIMBA_ASSERT(rowsOpen, "PRECHARGES issued with no activated rows");
    Cycles after_comp = anyComp
        ? lastComp + Cycles(std::max(t.tWR, t.tRTP_L))
        : Cycles(0);
    Cycles at = std::max({cmdBusFree,
                          maxActReady + Cycles(t.tRAS),
                          after_comp});
    bankReady = at + Cycles(t.tRP);
    rowsOpen = false;
    anyComp = false;
    maxActReady = Cycles(0);
    cmdBusFree = at + Cycles(1);
    frontier = std::max(frontier, bankReady);
    ++stats.precharges;
    record(DramCommand::PRECHARGES, at);
    return at;
}

int
PimCommandScheduler::maybeRefresh()
{
    const auto &t = cfg.timing;
    PIMBA_ASSERT(!rowsOpen, "refresh requires all banks precharged");
    int issued = 0;
    while (bankReady >= nextRefresh ||
           std::max(cmdBusFree, bankReady) >= nextRefresh) {
        Cycles at = std::max({cmdBusFree, bankReady, nextRefresh});
        bankReady = at + Cycles(t.tRFC);
        cmdBusFree = at + Cycles(1);
        frontier = std::max(frontier, bankReady);
        nextRefresh += Cycles(t.tREFI);
        ++stats.refresh;
        record(DramCommand::REF, at);
        ++issued;
    }
    return issued;
}

Cycles
PimCommandScheduler::finishCycle() const
{
    return frontier;
}

Seconds
PimCommandScheduler::finishSeconds() const
{
    return cyclesToSeconds(finishCycle(), cfg.busFreqHz);
}

} // namespace pimba
