/**
 * @file
 * Figure 13 — normalized latency breakdown of the large-scale (70B)
 * models at generation with (2048, 2048) lengths across the four
 * systems. Paper anchors: Pimba reduces state-update latency 14.6x vs
 * GPU and 6.9x vs GPU+PIM; attention 6.3x and 2.1x.
 */

#include <cstdio>

#include "core/args.h"
#include "core/table.h"
#include "sim/serving_sim.h"

using namespace pimba;

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig13_breakdown",
                   "Figure 13: latency breakdown at 70B on 8x A100.");
    if (!args.parse(argc, argv))
        return args.exitCode();

    printf("=== Figure 13: latency breakdown, 70B, 8x A100 ===\n");
    const BreakdownKey cats[] = {
        BreakdownKey::StateUpdate,    BreakdownKey::Attention,
        BreakdownKey::Discretization, BreakdownKey::CausalConv,
        BreakdownKey::GEMM,           BreakdownKey::Communication,
        BreakdownKey::Others};

    Accumulator su_vs_gpu, su_vs_pim, at_vs_gpu, at_vs_pim;

    for (const auto &model : evaluationModels70b()) {
        printf("--- %s ---\n", model.name.c_str());
        Table t({"system", "batch", "total(ms)", "StateUpdate",
                 "Attention", "Discretization", "CausalConv", "GEMM",
                 "Communication", "Others"});
        for (int batch : {32, 64, 128}) {
            StepResult gpu_step, pim_step;
            double base = 0.0;
            for (SystemKind kind : mainSystems()) {
                ServingSimulator sim(makeSystem(kind, 8));
                auto step = sim.generationStep(model, batch, 3072);
                if (kind == SystemKind::GPU) {
                    base = step.seconds.value();
                    gpu_step = step;
                }
                if (kind == SystemKind::GPU_PIM)
                    pim_step = step;
                std::vector<std::string> row = {systemName(kind),
                                                std::to_string(batch),
                                                fmt(step.seconds.value() *
                                                        1e3,
                                                    2)};
                for (BreakdownKey c : cats)
                    row.push_back(fmt(step.latency.get(c) / base, 3));
                t.addRow(row);
                if (kind == SystemKind::PIMBA && batch == 128) {
                    double su = step.latency.get(BreakdownKey::StateUpdate);
                    double at = step.latency.get(BreakdownKey::Attention);
                    if (su > 0) {
                        su_vs_gpu.add(
                            gpu_step.latency.get(BreakdownKey::StateUpdate) /
                            su);
                        su_vs_pim.add(
                            pim_step.latency.get(BreakdownKey::StateUpdate) /
                            su);
                    }
                    if (at > 0) {
                        at_vs_gpu.add(
                            gpu_step.latency.get(BreakdownKey::Attention) /
                            at);
                        at_vs_pim.add(
                            pim_step.latency.get(BreakdownKey::Attention) /
                            at);
                    }
                }
            }
        }
        printf("%s\n", t.str().c_str());
        fprintf(stderr, "  %s done\n", model.name.c_str());
    }

    printf("State-update latency reduction (b=128): %s vs GPU, %s vs "
           "GPU+PIM (paper: 14.6x, 6.9x)\n",
           fmtRatio(su_vs_gpu.mean()).c_str(),
           fmtRatio(su_vs_pim.mean()).c_str());
    printf("Attention latency reduction (b=128): %s vs GPU, %s vs "
           "GPU+PIM (paper: 6.3x, 2.1x)\n",
           fmtRatio(at_vs_gpu.mean()).c_str(),
           fmtRatio(at_vs_pim.mean()).c_str());
    return 0;
}
