/**
 * @file
 * Figure 14 — normalized energy breakdown of the large-scale models at
 * batch 128 (generation). Paper anchors: Pimba consumes 2.2x less
 * energy than GPU and 1.3x less than GPU+PIM on average.
 */

#include <cstdio>

#include "core/args.h"
#include "core/table.h"
#include "sim/serving_sim.h"

using namespace pimba;

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig14_energy",
                   "Figure 14: energy breakdown at 70B, batch 128.");
    if (!args.parse(argc, argv))
        return args.exitCode();

    printf("=== Figure 14: energy breakdown, 70B, batch 128 ===\n");
    const BreakdownKey cats[] = {
        BreakdownKey::StateUpdateIo, BreakdownKey::StateUpdateCompute,
        BreakdownKey::AttentionIo,   BreakdownKey::AttentionCompute,
        BreakdownKey::GEMM,          BreakdownKey::Others};
    Accumulator vs_gpu, vs_pim;

    Table t({"model", "system", "total(J)", "SU I/O", "SU Comp",
             "Attn I/O", "Attn Comp", "GEMM", "Others"});
    for (const auto &model : evaluationModels70b()) {
        double base = 0.0, gpupim = 0.0, pimba = 0.0;
        for (SystemKind kind : mainSystems()) {
            ServingSimulator sim(makeSystem(kind, 8));
            auto step = sim.generationStep(model, 128, 3072);
            double total = step.energy.total();
            if (kind == SystemKind::GPU)
                base = total;
            if (kind == SystemKind::GPU_PIM)
                gpupim = total;
            if (kind == SystemKind::PIMBA)
                pimba = total;
            std::vector<std::string> row = {model.name, systemName(kind),
                                            fmt(total, 3)};
            for (BreakdownKey c : cats)
                row.push_back(fmt(step.energy.get(c) / base, 3));
            t.addRow(row);
        }
        vs_gpu.add(base / pimba);
        vs_pim.add(gpupim / pimba);
        fprintf(stderr, "  %s done\n", model.name.c_str());
    }
    printf("%s\n", t.str().c_str());
    printf("Pimba energy advantage: %s vs GPU (paper: 2.2x), %s vs "
           "GPU+PIM (paper: 1.3x)\n",
           fmtRatio(vs_gpu.mean()).c_str(),
           fmtRatio(vs_pim.mean()).c_str());
    return 0;
}
