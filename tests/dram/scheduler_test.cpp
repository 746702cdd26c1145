/**
 * @file
 * Tests of the PIM command scheduler against the Table 1 timing rules
 * and the Fig. 11 overlap behaviour, and of the closed-form command runs
 * against the one-command-at-a-time path they replace.
 */

#include <gtest/gtest.h>

#include <random>

#include "dram/pim_scheduler.h"
#include "pim/pim_compute.h"

namespace pimba {
namespace {

HbmConfig
cfg()
{
    return hbm2eConfig();
}

TEST(PimScheduler, Act4RespectsFaw)
{
    auto c = cfg();
    PimCommandScheduler s(c, true);
    Cycles a0 = s.issueAct4();
    Cycles a1 = s.issueAct4();
    Cycles a2 = s.issueAct4();
    EXPECT_GE(a1 - a0, static_cast<Cycles>(c.timing.tFAW));
    EXPECT_GE(a2 - a1, static_cast<Cycles>(c.timing.tFAW));
}

TEST(PimScheduler, CompWaitsForTrcd)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    Cycles act = s.issueAct4();
    Cycles comp = s.issueComp();
    EXPECT_GE(comp - act, static_cast<Cycles>(c.timing.tRCD));
}

TEST(PimScheduler, ConsecutiveCompsSpacedTccdL)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    s.issueAct4();
    Cycles prev = s.issueComp();
    for (int i = 0; i < 10; ++i) {
        Cycles next = s.issueComp();
        ASSERT_GE(next - prev, static_cast<Cycles>(c.timing.tCCD_L));
        prev = next;
    }
}

TEST(PimScheduler, SteadyStateCompRateIsTccdL)
{
    // Within a pass, COMP throughput is exactly one per tCCD_L — this
    // fixes the SPU frequency to busFreq / 4 (Table 1, Section 6.1).
    auto c = cfg();
    PimCommandScheduler s(c);
    s.issueAct4();
    Cycles first = s.issueComp();
    Cycles last = first;
    const int n = 100;
    for (int i = 0; i < n; ++i)
        last = s.issueComp();
    EXPECT_EQ(last - first, static_cast<Cycles>(n * c.timing.tCCD_L));
}

TEST(PimScheduler, RegWritesFillFawGaps)
{
    // Fig. 11: REG_WRITEs slot between ACT4s without delaying them.
    auto c = cfg();
    PimCommandScheduler s(c, true);
    Cycles a0 = s.issueAct4();
    for (int i = 0; i < 8; ++i)
        s.issueRegWrite();
    Cycles a1 = s.issueAct4();
    // The 8 REG_WRITEs (2 cycles each on the data bus) fit inside the
    // tFAW = 30 cycle window, so ACT4 spacing stays at tFAW.
    EXPECT_EQ(a1 - a0, static_cast<Cycles>(c.timing.tFAW));
}

TEST(PimScheduler, RegWritesSerializeOnDataBus)
{
    auto c = cfg();
    PimCommandScheduler s(c, true);
    Cycles r0 = s.issueRegWrite();
    Cycles r1 = s.issueRegWrite();
    EXPECT_GE(r1 - r0, static_cast<Cycles>(c.timing.burstCycles));
}

TEST(PimScheduler, PrechargeRespectsTrasAndTwr)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    Cycles act = s.issueAct4();
    Cycles comp = s.issueComp();
    Cycles pre = s.issuePrecharges();
    EXPECT_GE(pre - act, static_cast<Cycles>(c.timing.tRAS));
    EXPECT_GE(pre - comp, static_cast<Cycles>(c.timing.tWR));
}

TEST(PimScheduler, NextAct4WaitsForTrp)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    s.issueAct4();
    s.issueComp();
    Cycles pre = s.issuePrecharges();
    Cycles act = s.issueAct4();
    EXPECT_GE(act - pre, static_cast<Cycles>(c.timing.tRP));
}

TEST(PimScheduler, ResultReadAfterCompDelay)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    s.issueAct4();
    Cycles comp = s.issueComp();
    s.issuePrecharges();
    Cycles rr = s.issueResultRead();
    EXPECT_GE(rr - comp, static_cast<Cycles>(
                  std::max(c.timing.tRTP_L, c.timing.tWR)));
}

TEST(PimScheduler, ResultReadOverlapsPrechargeWindow)
{
    // Fig. 11: RESULT_READ only needs the data bus, so it issues inside
    // the tRP window after PRECHARGES rather than after it.
    auto c = cfg();
    PimCommandScheduler s(c);
    s.issueAct4();
    for (int i = 0; i < 16; ++i)
        s.issueComp(); // spread COMPs so tWR is satisfied by the time
    Cycles pre = s.issuePrecharges();
    Cycles rr = s.issueResultRead();
    EXPECT_LT(rr, pre + static_cast<Cycles>(c.timing.tRP));
}

TEST(PimScheduler, RefreshRequiresPrechargedBanks)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    s.issueAct4();
    EXPECT_DEATH(s.maybeRefresh(), "precharged");
}

TEST(PimScheduler, RefreshIssuedWhenDue)
{
    auto c = cfg();
    PimCommandScheduler s(c, true);
    // Run passes until we cross tREFI.
    int refreshes = 0;
    while (s.finishCycle() < static_cast<Cycles>(2 * c.timing.tREFI)) {
        refreshes += s.maybeRefresh();
        s.issueAct4();
        for (int i = 0; i < 32; ++i)
            s.issueComp();
        s.issuePrecharges();
    }
    EXPECT_GE(refreshes, 1);
    EXPECT_GE(s.counts().refresh, 1u);
}

TEST(PimScheduler, CompWithoutActDies)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    EXPECT_DEATH(s.issueComp(), "no activated rows");
}

TEST(PimScheduler, CountsTrackIssues)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    s.issueAct4();
    s.issueRegWrite();
    s.issueComp();
    s.issueComp();
    s.issuePrecharges();
    s.issueResultRead();
    const auto &n = s.counts();
    EXPECT_EQ(n.act4, 1u);
    EXPECT_EQ(n.regWrite, 1u);
    EXPECT_EQ(n.comp, 2u);
    EXPECT_EQ(n.precharges, 1u);
    EXPECT_EQ(n.resultRead, 1u);
}

TEST(PimScheduler, TraceRecordsWhenEnabled)
{
    auto c = cfg();
    PimCommandScheduler s(c, true);
    s.issueAct4();
    s.issueComp();
    ASSERT_EQ(s.trace().size(), 2u);
    EXPECT_EQ(s.trace()[0].cmd, DramCommand::ACT4);
    EXPECT_EQ(s.trace()[1].cmd, DramCommand::COMP);
    EXPECT_LE(s.trace()[0].cycle, s.trace()[1].cycle);
}

TEST(PimScheduler, FinishCoversPrechargeTail)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    s.issueAct4();
    s.issueComp();
    Cycles pre = s.issuePrecharges();
    EXPECT_GE(s.finishCycle(), pre + static_cast<Cycles>(c.timing.tRP));
}

TEST(PimScheduler, FinishSecondsUsesBusClock)
{
    auto c = cfg();
    PimCommandScheduler s(c);
    s.issueAct4();
    EXPECT_NEAR(s.finishSeconds().value(),
                static_cast<double>(s.finishCycle().value()) / c.busFreqHz,
                1e-15);
}

TEST(HbmConfig, Table1Values)
{
    auto c = hbm2eConfig();
    EXPECT_EQ(c.timing.tRP, 14);
    EXPECT_EQ(c.timing.tRAS, 34);
    EXPECT_EQ(c.timing.tCCD_S, 2);
    EXPECT_EQ(c.timing.tCCD_L, 4);
    EXPECT_EQ(c.timing.tWR, 16);
    EXPECT_EQ(c.timing.tRTP_S, 4);
    EXPECT_EQ(c.timing.tRTP_L, 6);
    EXPECT_EQ(c.timing.tREFI, 3900);
    EXPECT_EQ(c.timing.tFAW, 30);
    EXPECT_EQ(c.org.banksPerBankGroup, 4);
    EXPECT_EQ(c.org.bankGroupsPerPseudoChannel, 4);
    EXPECT_DOUBLE_EQ(c.busFreqHz, 1.512e9);
}

TEST(HbmConfig, PimFrequencyIsBusOverTccdL)
{
    // 1.512 GHz / 4 = 378 MHz (Table 1); HBM3: 2.626 GHz / 4 = 656.5 MHz.
    EXPECT_NEAR(hbm2eConfig().pimFreqHz(), 378e6, 1e3);
    EXPECT_NEAR(hbm3Config().pimFreqHz(), 656.5e6, 1e3);
}

TEST(HbmConfig, BandwidthMatchesGpu)
{
    // 40 channels of HBM2E approximate the A100's ~2 TB/s; the internal
    // all-bank bandwidth exceeds the channel bandwidth by banks/2x
    // tCCD ratio (the PIM opportunity, Section 2.3).
    auto c = hbm2eConfig();
    EXPECT_NEAR(c.channelBandwidth(), 1.935e12, 0.01e12);
    EXPECT_GT(c.internalBandwidth(), 7.0 * c.channelBandwidth());
}

void
expectSameState(const PimCommandScheduler &ref,
                const PimCommandScheduler &run, const std::string &where)
{
    ASSERT_EQ(ref.finishCycle().value(), run.finishCycle().value())
        << where;
    ASSERT_EQ(ref.lastIssueCycle().value(), run.lastIssueCycle().value())
        << where;
    const PimCommandCounts &a = ref.counts();
    const PimCommandCounts &b = run.counts();
    ASSERT_EQ(a.act4, b.act4) << where;
    ASSERT_EQ(a.regWrite, b.regWrite) << where;
    ASSERT_EQ(a.comp, b.comp) << where;
    ASSERT_EQ(a.resultRead, b.resultRead) << where;
    ASSERT_EQ(a.precharges, b.precharges) << where;
    ASSERT_EQ(a.refresh, b.refresh) << where;
}

/** Table 1 timings with every field redrawn small, so short passes
 *  cross tREFI; spacings of 0 and 1 make the command bus the binding
 *  term of a run. */
HbmConfig
randomTimings(std::mt19937_64 &rng)
{
    auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    HbmConfig c = hbm2eConfig();
    c.timing.tRCD = pick(1, 20);
    c.timing.tRP = pick(1, 20);
    c.timing.tRAS = pick(1, 40);
    c.timing.tCCD_L = pick(0, 6);
    c.timing.tWR = pick(0, 20);
    c.timing.tRTP_L = pick(0, 10);
    c.timing.tREFI = pick(40, 400);
    // Refresh must outpace the refresh debt it pays off.
    c.timing.tRFC = pick(1, c.timing.tREFI / 4);
    c.timing.tFAW = pick(0, 40);
    c.timing.burstCycles = pick(0, 4);
    return c;
}

TEST(PimSchedulerRuns, MatchPerCommandIssueOnRandomSequences)
{
    // One scheduler keeps a trace, so its runs take the per-command
    // path; the other issues them in closed form. Both see the same
    // seeded sequence of ACT4s, runs, PRECHARGES and refresh checks.
    std::mt19937_64 rng(20250917);
    std::vector<HbmConfig> configs = {hbm2eConfig(), hbm3Config()};
    HbmConfig unit = hbm2eConfig();
    unit.timing.tCCD_L = 1;
    unit.timing.burstCycles = 1;
    unit.timing.tREFI = 100;
    unit.timing.tRFC = 10;
    configs.push_back(unit);
    while (configs.size() < 40)
        configs.push_back(randomTimings(rng));

    for (size_t ci = 0; ci < configs.size(); ++ci) {
        const HbmConfig &c = configs[ci];
        PimCommandScheduler ref(c, /*keep_trace=*/true);
        PimCommandScheduler run(c);
        bool open = false;
        for (int step = 0; step < 400; ++step) {
            uint64_t k = std::uniform_int_distribution<uint64_t>(0, 40)(rng);
            int op = std::uniform_int_distribution<int>(0, 5)(rng);
            if (!open && op == 2)
                op = 0; // COMP needs open rows
            switch (op) {
              case 0:
                ref.issueAct4();
                run.issueAct4();
                open = true;
                break;
              case 1:
                ref.issueRegWrites(k);
                run.issueRegWrites(k);
                break;
              case 2:
                ref.issueComps(k);
                run.issueComps(k);
                break;
              case 3:
                ref.issueResultReads(k);
                run.issueResultReads(k);
                break;
              default:
                if (open) {
                    ref.issuePrecharges();
                    run.issuePrecharges();
                    open = false;
                }
                EXPECT_EQ(ref.maybeRefresh(), run.maybeRefresh());
                break;
            }
            expectSameState(ref, run,
                            "config " + std::to_string(ci) + " step " +
                                std::to_string(step));
        }
        // The traced scheduler really did issue one command per record.
        const PimCommandCounts &n = ref.counts();
        EXPECT_EQ(ref.trace().size(),
                  n.act4 + n.regWrite + n.comp + n.resultRead +
                      n.precharges + n.refresh);
    }
}

/**
 * Per-command reference for one kernel: re-issue its pass plan one
 * command at a time in the Fig. 11 order and cost the energy from the
 * resulting counts. The plan (passes and command totals) is read off
 * the model's own counts, which do not depend on how a run is issued.
 */
PimKernelResult
referenceKernel(const PimComputeModel &model, const PimKernelResult &fast,
                uint64_t processed_bytes_per_pc, bool writes_back)
{
    const HbmConfig &hbm = model.hbm();
    PimCommandScheduler sched(hbm, /*keep_trace=*/true);
    const uint64_t passes = fast.counts.precharges;
    const int act4_per_pass = ceilDiv(hbm.org.banksPerPseudoChannel(), 4);
    uint64_t comps_left = fast.counts.comp;
    uint64_t regs_left = fast.counts.regWrite;
    uint64_t results_left = fast.counts.resultRead;
    for (uint64_t p = 0; p < passes; ++p) {
        uint64_t comps = ceilDiv(comps_left, passes - p);
        uint64_t regs = ceilDiv(regs_left, passes - p);
        uint64_t results = ceilDiv(results_left, passes - p);
        comps_left -= comps;
        regs_left -= regs;
        results_left -= results;
        sched.maybeRefresh();
        uint64_t regs_issued = 0;
        for (int a = 0; a < act4_per_pass; ++a) {
            sched.issueAct4();
            uint64_t quota = std::min(
                ceilDiv(regs, uint64_t{4}) * static_cast<uint64_t>(a + 1),
                regs);
            for (; regs_issued < quota; ++regs_issued)
                sched.issueRegWrite();
        }
        for (; regs_issued < regs; ++regs_issued)
            sched.issueRegWrite();
        for (uint64_t i = 0; i < comps; ++i)
            sched.issueComp();
        sched.issuePrecharges();
        for (uint64_t i = 0; i < results; ++i)
            sched.issueResultRead();
    }

    PimKernelResult ref;
    ref.cycles = sched.finishCycle();
    ref.seconds = sched.finishSeconds();
    ref.counts = sched.counts();
    const double pcs = hbm.org.totalPseudoChannels();
    const auto &en = hbm.energy;
    const NumberFormat fmt = model.design().dataFormat;
    double bits = static_cast<double>(processed_bytes_per_pc) * 8.0;
    ref.energy.activation =
        Joules(static_cast<double>(ref.counts.act4) * 4.0 *
               en.actEnergyPerRow_pJ * kPico * pcs);
    ref.energy.column = Joules(bits * (writes_back ? 2.0 : 1.0) *
                               en.colEnergyPerBit_pJ * kPico * pcs);
    ref.energy.io = Joules(
        static_cast<double>(ref.counts.regWrite + ref.counts.resultRead) *
        hbm.org.columnBytes * 8.0 * en.ioEnergyPerBit_pJ * kPico * pcs);
    ref.energy.compute =
        Joules(bits / bitsPerValue(fmt) *
               (fmt == NumberFormat::MX8 ? 0.45 : 1.0) * kPico * pcs);
    return ref;
}

void
expectSameKernel(const PimKernelResult &ref, const PimKernelResult &fast,
                 const std::string &where)
{
    EXPECT_EQ(ref.cycles.value(), fast.cycles.value()) << where;
    EXPECT_EQ(ref.seconds, fast.seconds) << where;
    EXPECT_EQ(ref.counts.act4, fast.counts.act4) << where;
    EXPECT_EQ(ref.counts.regWrite, fast.counts.regWrite) << where;
    EXPECT_EQ(ref.counts.comp, fast.counts.comp) << where;
    EXPECT_EQ(ref.counts.resultRead, fast.counts.resultRead) << where;
    EXPECT_EQ(ref.counts.precharges, fast.counts.precharges) << where;
    EXPECT_EQ(ref.counts.refresh, fast.counts.refresh) << where;
    EXPECT_EQ(ref.energy.activation, fast.energy.activation) << where;
    EXPECT_EQ(ref.energy.column, fast.energy.column) << where;
    EXPECT_EQ(ref.energy.io, fast.energy.io) << where;
    EXPECT_EQ(ref.energy.compute, fast.energy.compute) << where;
}

TEST(PimSchedulerRuns, KernelsMatchPerCommandReference)
{
    std::mt19937_64 rng(104729);
    std::vector<HbmConfig> configs = {hbm2eConfig(), hbm3Config()};
    HbmConfig tight = hbm2eConfig();
    tight.timing.tCCD_L = 1;
    tight.timing.burstCycles = 1;
    tight.timing.tREFI = 300; // passes cross refresh windows
    tight.timing.tRFC = 30;
    configs.push_back(tight);
    for (int i = 0; i < 3; ++i) {
        HbmConfig c = randomTimings(rng);
        c.timing.tCCD_L = std::max(c.timing.tCCD_L, 1);
        c.timing.burstCycles = std::max(c.timing.burstCycles, 1);
        configs.push_back(c);
    }
    const PimDesign designs[] = {pimbaDesign(), hbmPimDesign(),
                                 perBankPipelinedDesign(), neupimsDesign()};
    auto draw = [&rng](uint64_t lo, uint64_t hi) {
        return std::uniform_int_distribution<uint64_t>(lo, hi)(rng);
    };
    const int heads[] = {32, 64, 128};
    uint64_t refreshes = 0;

    for (size_t ci = 0; ci < configs.size(); ++ci) {
        const HbmConfig &hbm = configs[ci];
        for (const PimDesign &design : designs) {
            PimComputeModel model(hbm, design);
            for (int trial = 0; trial < 6; ++trial) {
                std::string where = "config " + std::to_string(ci) + " " +
                                    design.name + " trial " +
                                    std::to_string(trial);
                int dim_head = heads[draw(0, 2)];
                if (design.supportsStateUpdate) {
                    StateUpdateShape su{draw(1, 3000), dim_head,
                                        static_cast<int>(draw(1, 4)) * 32};
                    PimKernelResult fast = model.stateUpdate(su);
                    StateLayout lay =
                        computeStateLayout(su, design.dataFormat, hbm);
                    expectSameKernel(
                        referenceKernel(model, fast, lay.stateBytesPerPc,
                                        /*writes_back=*/true),
                        fast, where + " state update");
                    refreshes += fast.counts.refresh;
                }
                AttentionShape at{draw(1, 1500), dim_head, draw(1, 4096)};
                PimKernelResult score = model.attentionScore(at);
                expectSameKernel(
                    referenceKernel(model, score,
                                    computeScoreLayout(at, design.dataFormat,
                                                       hbm)
                                        .cacheBytesPerPc,
                                    false),
                    score, where + " score");
                PimKernelResult attend = model.attentionAttend(at);
                expectSameKernel(
                    referenceKernel(model, attend,
                                    computeAttendLayout(at, design.dataFormat,
                                                        hbm)
                                        .cacheBytesPerPc,
                                    false),
                    attend, where + " attend");
                refreshes += score.counts.refresh + attend.counts.refresh;
            }
        }
    }
    EXPECT_GT(refreshes, 0u); // some kernels crossed tREFI
}

} // namespace
} // namespace pimba
