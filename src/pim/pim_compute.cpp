#include "pim/pim_compute.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace pimba {

namespace {

/** SPE arithmetic energy per processed state/cache value (pJ). The MX8
 *  datapath is cheaper per value than fp16 (narrower mantissa products);
 *  values follow the Table 3 power ratio scaled per-throughput. */
double
computeEnergyPerValuePj(NumberFormat fmt)
{
    return fmt == NumberFormat::MX8 ? 0.45 : 1.0;
}

/**
 * Even split of a kernel's command total over its passes: passes
 * [0, total % passes) take one command more than the rest. These are
 * the shares that handing each pass ceilDiv(left, passes_left) of what
 * is left gives, without a division per pass.
 */
struct PassShare
{
    PassShare(uint64_t total, uint64_t passes)
        : base(total / passes), extra(total % passes)
    {}

    uint64_t
    of(uint64_t pass) const
    {
        return base + (pass < extra ? 1 : 0);
    }

    uint64_t base;
    uint64_t extra;
};

/**
 * Pack a state-update shape into a nonzero memo key, or 0 if a field
 * exceeds its bit range (instances >= 1 keeps in-range keys nonzero).
 */
uint64_t
suShapeKey(const StateUpdateShape &s)
{
    if (s.instances >= (1ull << 40) || s.dimHead < 0 ||
        s.dimHead >= (1 << 12) || s.dimState < 0 ||
        s.dimState >= (1 << 12))
        return 0;
    return (s.instances << 24) |
           (static_cast<uint64_t>(s.dimHead) << 12) |
           static_cast<uint64_t>(s.dimState);
}

/** Packed attention-shape memo key, or 0 if out of range. */
uint64_t
attnShapeKey(const AttentionShape &s)
{
    if (s.instances >= (1ull << 20) || s.dimHead < 0 ||
        s.dimHead >= (1 << 12) || s.seqLen >= (1ull << 32))
        return 0;
    return (s.instances << 44) |
           (static_cast<uint64_t>(s.dimHead) << 32) | s.seqLen;
}

} // namespace

PimDesign
pimbaDesign()
{
    return {"Pimba", PimStyle::PimbaInterleaved, NumberFormat::MX8,
            true, true};
}

PimDesign
hbmPimDesign()
{
    return {"HBM-PIM", PimStyle::TimeMultiplexed, NumberFormat::FP16,
            true, true};
}

PimDesign
perBankPipelinedDesign(NumberFormat fmt)
{
    return {"PerBankPipelined", PimStyle::PerBankPipelined, fmt,
            true, true};
}

PimDesign
neupimsDesign()
{
    return {"NeuPIMs", PimStyle::PerBankPipelined, NumberFormat::FP16,
            false, true};
}

PimComputeModel::PimComputeModel(const HbmConfig &hbm,
                                 const PimDesign &design)
    : hbmCfg(hbm), pimDesign(design)
{}

PimKernelResult
PimComputeModel::runPasses(uint64_t passes, uint64_t total_comps,
                           uint64_t reg_write_cmds,
                           uint64_t result_read_cmds,
                           uint64_t processed_bytes_per_pc,
                           bool writes_back) const
{
    const auto &org = hbmCfg.org;
    PimCommandScheduler sched(hbmCfg);

    const int act4_per_pass = ceilDiv(org.banksPerPseudoChannel(), 4);
    PIMBA_ASSERT(passes > 0, "a PIM kernel runs at least one pass");
    const PassShare comps_of(total_comps, passes);
    const PassShare regs_of(reg_write_cmds, passes);
    const PassShare results_of(result_read_cmds, passes);

    for (uint64_t p = 0; p < passes; ++p) {
        const uint64_t comps = comps_of.of(p);
        const uint64_t regs = regs_of.of(p);
        const uint64_t results = results_of.of(p);

        sched.maybeRefresh();

        // ACT4s with REG_WRITEs interleaved into the tFAW gaps (Fig. 11).
        uint64_t regs_issued = 0;
        for (int a = 0; a < act4_per_pass; ++a) {
            sched.issueAct4();
            uint64_t quota = ceilDiv(regs, uint64_t{4}) *
                             static_cast<uint64_t>(a + 1);
            quota = std::min(quota, regs);
            sched.issueRegWrites(quota - regs_issued);
            regs_issued = quota;
        }
        sched.issueRegWrites(regs - regs_issued);

        sched.issueComps(comps);

        // PRECHARGES first so the RESULT_READs overlap its tRP window.
        sched.issuePrecharges();
        sched.issueResultReads(results);
    }

    PimKernelResult res;
    res.cycles = sched.finishCycle();
    res.seconds = sched.finishSeconds();
    res.counts = sched.counts();

    // Whole-device energy: every pseudo-channel runs the same stream.
    const double pcs = org.totalPseudoChannels();
    const auto &en = hbmCfg.energy;
    double rows_activated = static_cast<double>(res.counts.act4) * 4.0;
    res.energy.activation = Joules(rows_activated * en.actEnergyPerRow_pJ *
                                   kPico * pcs);
    double bits_processed =
        static_cast<double>(processed_bytes_per_pc) * 8.0;
    double col_factor = writes_back ? 2.0 : 1.0; // read + write-back
    res.energy.column = Joules(bits_processed * col_factor *
                               en.colEnergyPerBit_pJ * kPico * pcs);
    double io_bits = static_cast<double>(res.counts.regWrite +
                                         res.counts.resultRead) *
                     org.columnBytes * 8.0;
    res.energy.io = Joules(io_bits * en.ioEnergyPerBit_pJ * kPico * pcs);
    double values = bits_processed /
                    (bitsPerValue(pimDesign.dataFormat));
    res.energy.compute = Joules(values * computeEnergyPerValuePj(
                                    pimDesign.dataFormat) * kPico * pcs);
    return res;
}

PimKernelResult
PimComputeModel::stateUpdate(const StateUpdateShape &shape) const
{
    uint64_t key = suShapeKey(shape);
    if (key == 0)
        return stateUpdateUncached(shape);
    if (const PimKernelResult *hit = suCache.find(key))
        return *hit;
    return suCache.insert(key, stateUpdateUncached(shape));
}

PimKernelResult
PimComputeModel::attentionScore(const AttentionShape &shape) const
{
    uint64_t key = attnShapeKey(shape);
    if (key == 0)
        return attentionScoreUncached(shape);
    if (const PimKernelResult *hit = scoreCache.find(key))
        return *hit;
    return scoreCache.insert(key, attentionScoreUncached(shape));
}

PimKernelResult
PimComputeModel::attentionAttend(const AttentionShape &shape) const
{
    uint64_t key = attnShapeKey(shape);
    if (key == 0)
        return attentionAttendUncached(shape);
    if (const PimKernelResult *hit = attendCache.find(key))
        return *hit;
    return attendCache.insert(key, attentionAttendUncached(shape));
}

PimKernelResult
PimComputeModel::stateUpdateUncached(const StateUpdateShape &shape) const
{
    PIMBA_ASSERT(pimDesign.supportsStateUpdate,
                 pimDesign.name, " cannot execute state updates");
    const auto &org = hbmCfg.org;
    StateLayout lay = computeStateLayout(shape, pimDesign.dataFormat,
                                         hbmCfg);

    double cols_per_comp = columnsPerCompSlot(
        pimDesign.style, org.banksPerPseudoChannel(), true);
    uint64_t comps = static_cast<uint64_t>(
        std::ceil(static_cast<double>(lay.columnsPerPc) / cols_per_comp));

    int pcs = org.totalPseudoChannels();
    uint64_t reg_cmds = ceilDiv<uint64_t>(
        ceilDiv<uint64_t>(lay.regWriteBytesTotal, pcs),
        static_cast<uint64_t>(org.columnBytes));
    uint64_t result_cmds = ceilDiv<uint64_t>(
        ceilDiv<uint64_t>(lay.resultReadBytesTotal, pcs),
        static_cast<uint64_t>(org.columnBytes));

    return runPasses(lay.passes, comps, reg_cmds, result_cmds,
                     lay.stateBytesPerPc, /*writes_back=*/true);
}

PimKernelResult
PimComputeModel::attentionScoreUncached(const AttentionShape &shape) const
{
    PIMBA_ASSERT(pimDesign.supportsAttention,
                 pimDesign.name, " cannot execute attention");
    const auto &org = hbmCfg.org;
    AttentionLayout lay = computeScoreLayout(shape, pimDesign.dataFormat,
                                             hbmCfg);
    double cols_per_comp = columnsPerCompSlot(
        pimDesign.style, org.banksPerPseudoChannel(), false);
    uint64_t comps = static_cast<uint64_t>(
        std::ceil(static_cast<double>(lay.columnsPerPc) / cols_per_comp));
    int pcs = org.totalPseudoChannels();
    uint64_t reg_cmds = ceilDiv<uint64_t>(
        ceilDiv<uint64_t>(lay.regWriteBytesTotal, pcs),
        static_cast<uint64_t>(org.columnBytes));
    uint64_t result_cmds = ceilDiv<uint64_t>(
        ceilDiv<uint64_t>(lay.resultReadBytesTotal, pcs),
        static_cast<uint64_t>(org.columnBytes));
    return runPasses(lay.passes, comps, reg_cmds, result_cmds,
                     lay.cacheBytesPerPc, /*writes_back=*/false);
}

PimKernelResult
PimComputeModel::attentionAttendUncached(const AttentionShape &shape) const
{
    PIMBA_ASSERT(pimDesign.supportsAttention,
                 pimDesign.name, " cannot execute attention");
    const auto &org = hbmCfg.org;
    AttentionLayout lay = computeAttendLayout(shape, pimDesign.dataFormat,
                                              hbmCfg);
    double cols_per_comp = columnsPerCompSlot(
        pimDesign.style, org.banksPerPseudoChannel(), false);
    uint64_t comps = static_cast<uint64_t>(
        std::ceil(static_cast<double>(lay.columnsPerPc) / cols_per_comp));
    int pcs = org.totalPseudoChannels();
    uint64_t reg_cmds = ceilDiv<uint64_t>(
        ceilDiv<uint64_t>(lay.regWriteBytesTotal, pcs),
        static_cast<uint64_t>(org.columnBytes));
    uint64_t result_cmds = ceilDiv<uint64_t>(
        ceilDiv<uint64_t>(lay.resultReadBytesTotal, pcs),
        static_cast<uint64_t>(org.columnBytes));
    return runPasses(lay.passes, comps, reg_cmds, result_cmds,
                     lay.cacheBytesPerPc, /*writes_back=*/false);
}

} // namespace pimba
