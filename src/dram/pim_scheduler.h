/**
 * @file
 * Cycle-accurate command scheduler for one PIM pseudo-channel.
 *
 * Enforces the Table 1 timing constraints over the five custom commands of
 * Section 5.5 and reproduces the Fig. 11 overlap: REG_WRITEs slot into the
 * tFAW-imposed gaps between ACT4s (they only need the data bus), and
 * RESULT_READ overlaps the tRP window opened by PRECHARGES.
 *
 * All banks of the pseudo-channel operate in lock-step under the all-bank
 * commands (the all-bank design the paper adopts from prior PIMs), so one
 * scheduler instance models the whole pseudo-channel; per-device numbers
 * multiply by the pseudo-channel count.
 *
 * Refresh is handled at pass boundaries via maybeRefresh(): the host
 * schedules PIM passes between refresh windows ("aligning with DRAM
 * refresh schemes", Section 5.5), so REF is issued while banks are
 * precharged and charges tRFC.
 *
 * Runs of k same-kind commands (issueRegWrites(), issueComps(),
 * issueResultReads()) are issued in O(1), and exactly. Because refresh
 * happens only at pass boundaries, nothing else moves a frontier inside
 * a run, so after the run's first command each issue-time max() has one
 * dominant term: the command's own previous issue plus its spacing.
 * COMPs then fall exactly max(1, tCCD_L) apart (command bus vs. tCCD_L),
 * and REG_WRITEs and RESULT_READs max(1, burstCycles) apart (command
 * bus vs. data bus). The first command of a run goes through the
 * single-command path, so every legality check still fires; with
 * keep_trace on, runs fall back to one call per command so the trace
 * holds every record.
 */

#ifndef PIMBA_DRAM_PIM_SCHEDULER_H
#define PIMBA_DRAM_PIM_SCHEDULER_H

#include <vector>

#include "dram/command.h"
#include "dram/hbm_config.h"

namespace pimba {

/** Per-command issue counters. */
struct PimCommandCounts
{
    uint64_t act4 = 0;
    uint64_t regWrite = 0;
    uint64_t comp = 0;
    uint64_t resultRead = 0;
    uint64_t precharges = 0;
    uint64_t refresh = 0;
};

/** Timing-enforcing issue engine for one pseudo-channel. */
class PimCommandScheduler
{
  public:
    /**
     * @param cfg HBM configuration (timings in bus cycles).
     * @param keep_trace Record every issued command (tests/visualization);
     *                   disable for long simulations.
     */
    explicit PimCommandScheduler(const HbmConfig &cfg,
                                 bool keep_trace = false);

    /** Gang-activate the next four banks' target rows. */
    Cycles issueAct4();

    /** Load one operand register group from the host (data bus burst). */
    Cycles issueRegWrite();

    /** One all-bank PIM computation step on one column. */
    Cycles issueComp();

    /** Drain one accumulator register group to the host. */
    Cycles issueResultRead();

    /** @p k back-to-back issueRegWrite()s, in closed form. */
    void issueRegWrites(uint64_t k);

    /** @p k back-to-back issueComp()s, in closed form. */
    void issueComps(uint64_t k);

    /** @p k back-to-back issueResultRead()s, in closed form. */
    void issueResultReads(uint64_t k);

    /** Precharge all banks; returns issue cycle (completion is +tRP). */
    Cycles issuePrecharges();

    /**
     * Issue any due refresh while banks are precharged. Call between PIM
     * passes. Returns the number of REF commands issued.
     */
    int maybeRefresh();

    /** Completion frontier: cycle at which all issued work is done. */
    Cycles finishCycle() const;

    const PimCommandCounts &counts() const { return stats; }
    const std::vector<CommandRecord> &trace() const { return records; }

    /** Wall-clock time corresponding to finishCycle() — the cycle
     *  domain's only crossing into the time domain. */
    Seconds finishSeconds() const;

  private:
    void record(DramCommand cmd, Cycles cycle, int bank = -1);

    /**
     * Issue a @p k-command run's head through the single-command
     * @p One: its first command, or all of them when tracing. Returns
     * true when the rest of the run is left to close in closed form.
     * @p One is a template argument so the head is a direct call.
     */
    template <Cycles (PimCommandScheduler::*One)()>
    bool issueRunHead(uint64_t k);

    /** Issue cycle of the k-th command of a run whose commands fall
     *  max(1, @p spacing) apart, the first at lastIssue. */
    Cycles runEnd(uint64_t k, int spacing) const;

    /** Close a data-bus run (REG_WRITE or RESULT_READ) whose first
     *  command is issued, adding its other k - 1 to @p count. */
    void finishDataBusRun(uint64_t k, uint64_t &count);

    const HbmConfig cfg;
    const bool keepTrace;

    // Resource-availability frontiers (cycle numbers).
    Cycles cmdBusFree;   ///< command/address bus (1 cmd per cycle)
    Cycles dataBusFree;  ///< shared data bus (burstCycles per xfer)
    Cycles lastAct4;     ///< for the tFAW window between ACT4s
    bool anyAct4 = false;
    Cycles maxActReady;  ///< latest ACT4 issue in the open pass
    bool rowsOpen = false;
    Cycles lastComp;
    bool anyComp = false;
    Cycles bankReady;    ///< banks usable (after tRP / tRFC)
    Cycles nextRefresh;

    Cycles lastIssue;
    Cycles frontier;     ///< completion of all issued activity

    PimCommandCounts stats;
    std::vector<CommandRecord> records;
};

} // namespace pimba

#endif // PIMBA_DRAM_PIM_SCHEDULER_H
