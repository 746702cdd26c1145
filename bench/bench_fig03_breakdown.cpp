/**
 * @file
 * Figure 3 — GPU generation-phase latency breakdown across SU-LLMs and
 * Zamba2 for batch sizes {32, 64, 128}. Paper anchor: RetNet state
 * updates grow from 41.9% (b=32) to 73.8% (b=128); Zamba2's attention
 * reaches ~65% at b=128 with (2048, 2048) lengths.
 */

#include <cstdio>

#include "core/args.h"
#include "core/table.h"
#include "sim/serving_sim.h"

using namespace pimba;

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig03_breakdown",
                   "Figure 3: per-operation latency breakdown on the GPU.");
    if (!args.parse(argc, argv))
        return args.exitCode();

    printf("=== Figure 3: latency breakdown on GPU (generation) ===\n");
    ServingSimulator gpu(makeSystem(SystemKind::GPU));

    const BreakdownKey cats[] = {
        BreakdownKey::StateUpdate,    BreakdownKey::Attention,
        BreakdownKey::Discretization, BreakdownKey::CausalConv,
        BreakdownKey::GEMM,           BreakdownKey::Others};
    Table t({"model", "batch", "StateUpdate%", "Attention%",
             "Discretization%", "CausalConv%", "GEMM%", "Others%"});

    for (const auto &model : evaluationModels()) {
        for (int batch : {32, 64, 128}) {
            // SU-LLMs are sequence-length independent; Zamba2/OPT use
            // (2048, 2048) per the caption.
            uint64_t seq = (model.attentionLayers() > 0) ? 3072 : 1;
            auto step = gpu.generationStep(model, batch, seq);
            std::vector<std::string> row = {model.name,
                                            std::to_string(batch)};
            for (BreakdownKey c : cats)
                row.push_back(fmt(100.0 * step.latency.fraction(c), 1));
            t.addRow(row);
        }
    }
    printf("%s", t.str().c_str());

    auto retnet32 = gpu.generationStep(retnet2p7b(), 32, 1);
    auto retnet128 = gpu.generationStep(retnet2p7b(), 128, 1);
    printf("\nRetNet state-update share: %.1f%% (b=32) -> %.1f%% "
           "(b=128); paper: 41.9%% -> 73.8%%\n",
           100.0 * retnet32.latency.fraction(BreakdownKey::StateUpdate),
           100.0 * retnet128.latency.fraction(BreakdownKey::StateUpdate));
    auto zamba128 = gpu.generationStep(zamba2_7b(), 128, 3072);
    printf("Zamba2 attention share at b=128: %.1f%% (paper: 65.5%%)\n",
           100.0 * zamba128.latency.fraction(BreakdownKey::Attention));
    return 0;
}
