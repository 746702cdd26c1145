/**
 * @file
 * Hybrid-model walk-through: Zamba2-70B served on 8 GPUs. Shows why a
 * serving system must accelerate BOTH state updates and attention
 * (Section 3.1): with only one of them offloaded, the other dominates.
 *
 * The NeuPIMs-like system offloads only attention; a hypothetical
 * "SU-only" Pimba is emulated by running attention on the GPU.
 */

#include <cstdio>

#include "core/args.h"
#include "core/table.h"
#include "sim/serving_sim.h"

using namespace pimba;

int
main(int argc, char **argv)
{
    ArgParser args("hybrid_zamba2",
                   "Zamba2 hybrid-model (attention + SSM) study on 8x A100.");
    if (!args.parse(argc, argv))
        return args.exitCode();

    ModelConfig model = scaleModel(zamba2_7b(), 70e9);
    model.name = "Zamba2-70B";
    const int batch = 128;
    const uint64_t seq = 3072; // mid-decode with (2048, 2048) lengths

    printf("=== %s on 8x A100, batch %d ===\n\n", model.name.c_str(),
           batch);
    printf("%d Mamba-2 blocks + %d attention blocks (1:6 ratio)\n\n",
           model.stateUpdateLayers(), model.attentionLayers());

    Table t({"system", "step (ms)", "StateUpdate (ms)",
             "Attention (ms)", "bottleneck"});
    for (SystemKind kind :
         {SystemKind::GPU, SystemKind::NEUPIMS, SystemKind::GPU_PIM,
          SystemKind::PIMBA}) {
        ServingSimulator sim(makeSystem(kind, 8));
        auto step = sim.generationStep(model, batch, seq);
        double su = step.latency.get(BreakdownKey::StateUpdate);
        double at = step.latency.get(BreakdownKey::Attention);
        const char *bottleneck = "GEMM";
        double top = step.latency.get(BreakdownKey::GEMM);
        if (su > top) {
            bottleneck = "StateUpdate";
            top = su;
        }
        if (at > top)
            bottleneck = "Attention";
        t.addRow({systemName(kind), fmt(step.seconds.value() * 1e3, 2),
                  fmt(su * 1e3, 2), fmt(at * 1e3, 2), bottleneck});
    }
    printf("%s", t.str().c_str());

    printf("\nTakeaway: NeuPIMs (attention-only PIM) leaves the state "
           "updates on the\nGPU where they dominate; Pimba offloads "
           "both by reusing one SPU\nmicroarchitecture for the two "
           "operations (Section 5.4).\n");
    return 0;
}
