/**
 * @file
 * HBM organization and timing configuration (paper Table 1).
 *
 * Both the Pimba device and the HBM-PIM baseline use 40 HBM stacks'
 * worth of channels matching the host GPU's memory bandwidth: HBM2E at a
 * 1.512 GHz bus for the A100 system and HBM3 at 2.626 GHz for the H100
 * system (Section 6.1 / Figure 16). The PIM clock is the bus clock
 * divided by tCCD_L = 4, i.e. 378 MHz and 657 MHz respectively.
 */

#ifndef PIMBA_DRAM_HBM_CONFIG_H
#define PIMBA_DRAM_HBM_CONFIG_H

#include <string>

#include "core/units.h"

namespace pimba {

/** DRAM timing parameters, in memory-bus clock cycles (Table 1). */
struct HbmTiming
{
    int tRCD = 14;   ///< ACT to column command (assumed; not in Table 1)
    int tRP = 14;    ///< precharge period
    int tRAS = 34;   ///< ACT to PRE minimum
    int tCCD_S = 2;  ///< column-to-column, different bank group
    int tCCD_L = 4;  ///< column-to-column, same bank group
    int tWR = 16;    ///< write recovery before PRE
    int tRTP_S = 4;  ///< read-to-precharge, different bank group
    int tRTP_L = 6;  ///< read-to-precharge, same bank group
    int tREFI = 3900;///< average refresh interval
    int tRFC = 390;  ///< refresh cycle time (assumed 260 ns @ 1.512 GHz)
    int tFAW = 30;   ///< four-activation window
    int burstCycles = 2; ///< data-bus occupancy per column burst (BL4, DDR)

    /** tRC: minimum interval between ACTs to the same bank. */
    int tRC() const { return tRAS + tRP; }
};

/** DRAM organization parameters (Table 1 plus common HBM2E geometry). */
struct HbmOrganization
{
    int banksPerBankGroup = 4;
    int bankGroupsPerPseudoChannel = 4;
    int pseudoChannelsPerChannel = 2;
    int numChannels = 40;      ///< across all stacks of the device
    int columnBytes = 32;      ///< one column access per pseudo-channel
    int rowBytes = 1024;       ///< row-buffer size per bank

    int banksPerPseudoChannel() const
    {
        return banksPerBankGroup * bankGroupsPerPseudoChannel;
    }

    int totalPseudoChannels() const
    {
        return numChannels * pseudoChannelsPerChannel;
    }

    int columnsPerRow() const { return rowBytes / columnBytes; }
};

/** Energy constants (O'Connor et al. MICRO'17 fine-grained DRAM). */
struct HbmEnergy
{
    double actEnergyPerRow_pJ = 909.0; ///< one row activation
    double colEnergyPerBit_pJ = 1.25;  ///< internal column access
    double ioEnergyPerBit_pJ = 1.5;    ///< off-chip transfer to the host
};

/** Full HBM + PIM clocking configuration. */
struct HbmConfig
{
    std::string name = "hbm2e";
    HbmOrganization org;
    HbmTiming timing;
    HbmEnergy energy;
    double busFreqHz = 1.512e9;

    /** PIM (SPU) clock: one COMP per tCCD_L bus cycles (Section 6.1). */
    double pimFreqHz() const
    {
        return busFreqHz / timing.tCCD_L;
    }
};

/** A100-matched HBM2E device (Table 1; ~1.94 TB/s over 40 channels). */
HbmConfig hbm2eConfig();

/** H100-matched HBM3 device (Section 6.2, Fig. 16; ~3.36 TB/s). */
HbmConfig hbm3Config();

inline HbmConfig
hbm2eConfig()
{
    HbmConfig cfg;
    cfg.name = "hbm2e";
    cfg.busFreqHz = 1.512e9;
    return cfg;
}

inline HbmConfig
hbm3Config()
{
    HbmConfig cfg;
    cfg.name = "hbm3";
    cfg.busFreqHz = 2.626e9;
    // Same cycle-domain timing table; the faster clock shrinks wall-time.
    // tRFC scales to keep ~260 ns.
    cfg.timing.tRFC = 683;
    cfg.timing.tREFI = 6774;
    return cfg;
}

} // namespace pimba

#endif // PIMBA_DRAM_HBM_CONFIG_H
