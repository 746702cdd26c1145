/**
 * @file
 * Figure 5 — (a) normalized state-update throughput of the GPU, the
 * per-bank time-multiplexed PIM and the per-bank pipelined PIM at
 * batch 128 (paper: 2.8x and 4.3x over GPU); (b) area overhead of the
 * two PIM designs (paper: 17.8% vs 32.4%).
 *
 * Both PIM designs here use fp16 state per Section 4.1 (quantization
 * enters in Section 4.2 / Fig. 6).
 */

#include <cstdio>

#include "core/args.h"
#include "core/table.h"
#include "pim/area_model.h"
#include "sim/serving_sim.h"

using namespace pimba;

namespace {

double
gpuStateUpdateTime(const ModelConfig &m, int batch)
{
    ServingSimulator gpu(makeSystem(SystemKind::GPU));
    return gpu.generationStep(m, batch, 1)
        .latency.get(BreakdownKey::StateUpdate);
}

double
pimStateUpdateTime(const ModelConfig &m, int batch,
                   const PimDesign &design)
{
    PimComputeModel pim(hbm2eConfig(), design);
    StateUpdateShape shape{static_cast<uint64_t>(batch) * m.suHeads,
                           m.dimHead, m.dimState};
    double launch = a100Config().kernelLaunchOverhead;
    return (pim.stateUpdate(shape).seconds.value() + launch) *
           m.stateUpdateLayers();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig05_pim_designs",
                   "Figure 5: state-update throughput and area of per-bank PIM designs.");
    if (!args.parse(argc, argv))
        return args.exitCode();

    printf("=== Figure 5(a): state-update throughput, batch 128 ===\n");
    Table t({"model", "GPU", "Time-multiplexed PIM", "Pipelined PIM"});
    const int batch = 128;
    for (const auto &m : evaluationModels()) {
        if (m.stateUpdateLayers() == 0)
            continue; // OPT has no state updates
        double gpu = gpuStateUpdateTime(m, batch);
        PimDesign tmx_design{"TimeMuxPerBank",
                             PimStyle::TimeMultiplexedPerBank,
                             NumberFormat::FP16, true, true};
        double tmx = pimStateUpdateTime(m, batch, tmx_design);
        double pipe = pimStateUpdateTime(
            m, batch, perBankPipelinedDesign(NumberFormat::FP16));
        t.addRow({m.name, "1.00", fmt(gpu / tmx, 2), fmt(gpu / pipe, 2)});
    }
    printf("%s", t.str().c_str());
    printf("(paper: time-multiplexed ~2.8x, pipelined ~4.3x)\n\n");

    printf("=== Figure 5(b): area overhead of per-bank designs ===\n");
    PimArea tmx = PimAreaModel::designArea(
        PimStyle::TimeMultiplexedPerBank, NumberFormat::FP16, false, 16);
    PimArea pipe = PimAreaModel::designArea(PimStyle::PerBankPipelined,
                                            NumberFormat::FP16, false,
                                            16);
    Table a({"design", "area overhead", "paper"});
    a.addRow({"Time-multiplexed PIM",
              fmt(PimAreaModel::overheadPercent(tmx), 1) + "%", "17.8%"});
    a.addRow({"Pipelined PIM",
              fmt(PimAreaModel::overheadPercent(pipe), 1) + "%",
              "32.4%"});
    printf("%s", a.str().c_str());
    printf("(>25%% breaches the deployability guideline; neither "
           "design offers both)\n");
    return 0;
}
