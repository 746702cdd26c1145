/**
 * @file
 * Figure 11 — command-scheduling timeline of one state-update pass:
 * REG_WRITEs overlap the tFAW gaps between ACT4s, COMPs stream at
 * tCCD_L, and RESULT_READ overlaps the PRECHARGES tRP window.
 */

#include <cstdio>

#include "core/args.h"
#include "dram/pim_scheduler.h"

using namespace pimba;

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig11_schedule",
                   "Figure 11: PIM command schedule for one state-update pass.");
    if (!args.parse(argc, argv))
        return args.exitCode();

    printf("=== Figure 11: PIM command schedule (one pass) ===\n");
    HbmConfig cfg = hbm2eConfig();
    PimCommandScheduler sched(cfg, /*keep_trace=*/true);

    // One pass: 4 ACT4s (16 banks), 8 REG_WRITEs, 16 COMPs,
    // PRECHARGES, 2 RESULT_READs.
    int regs = 8;
    int issued = 0;
    for (int a = 0; a < 4; ++a) {
        sched.issueAct4();
        while (issued < (a + 1) * 2) {
            sched.issueRegWrite();
            ++issued;
        }
    }
    for (int c = 0; c < 16; ++c)
        sched.issueComp();
    sched.issuePrecharges();
    for (int r = 0; r < 2; ++r)
        sched.issueResultRead();
    (void)regs;

    printf("%-6s %-12s\n", "cycle", "command");
    printf("--------------------\n");
    for (const auto &rec : sched.trace())
        printf("%-6llu %-12s\n",
               static_cast<unsigned long long>(rec.cycle.value()),
               commandName(rec.cmd).c_str());

    printf("\ntFAW=%d keeps ACT4s %d cycles apart; REG_WRITEs fill the "
           "gaps.\nCOMPs stream every tCCD_L=%d cycles.\nRESULT_READs "
           "issue inside the tRP=%d window after PRECHARGES.\n",
           cfg.timing.tFAW, cfg.timing.tFAW, cfg.timing.tCCD_L,
           cfg.timing.tRP);
    printf("finish cycle: %llu (%.1f ns)\n",
           static_cast<unsigned long long>(sched.finishCycle().value()),
           sched.finishSeconds().value() * 1e9);
    return 0;
}
