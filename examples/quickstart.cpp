/**
 * @file
 * Quickstart: simulate serving Mamba-2 2.7B on a Pimba-equipped A100
 * and print the per-token latency breakdown and throughput.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/args.h"
#include "sim/serving_sim.h"

using namespace pimba;

int
main(int argc, char **argv)
{
    ArgParser args("quickstart",
                   "Smallest end-to-end example: one decode step on each system.");
    if (!args.parse(argc, argv))
        return args.exitCode();

    // 1. Pick a model from the zoo (or build your own ModelConfig).
    ModelConfig model = mamba2_2p7b();
    printf("model: %s (%.2fB params, %d layers, state %.1f MB/request "
           "in fp16)\n",
           model.name.c_str(), model.paramCount() / 1e9, model.layers,
           model.stateBytes(2.0) / 1e6);

    // 2. Build a system: one A100 with Pimba PIM in its HBM.
    SystemConfig system = makeSystem(SystemKind::PIMBA);
    ServingSimulator sim(system);

    // 3. Simulate one generation step for a batch of 64 requests.
    const int batch = 64;
    StepResult step = sim.generationStep(model, batch, /*seq_len=*/2048);
    printf("\nper-token step latency: %.3f ms\n",
           step.seconds.value() * 1e3);
    for (BreakdownKey key : step.latency.keys())
        printf("  %-15s %7.3f ms (%4.1f%%)\n", breakdownKeyName(key),
               step.latency.get(key) * 1e3,
               100.0 * step.latency.fraction(key));

    // 4. Throughput over a (2048 in, 2048 out) serving window, and the
    //    same on a plain GPU for comparison.
    double pimba_thr =
        sim.generationThroughput(model, batch, 2048, 2048).value();
    ServingSimulator gpu(makeSystem(SystemKind::GPU));
    double gpu_thr =
        gpu.generationThroughput(model, batch, 2048, 2048).value();
    printf("\nthroughput: %.0f tok/s on Pimba vs %.0f tok/s on GPU "
           "(%.2fx)\n", pimba_thr, gpu_thr, pimba_thr / gpu_thr);

    // 5. Energy per generated token.
    printf("energy: %.2f mJ/token (Pimba) vs %.2f mJ/token (GPU)\n",
           step.energy.total() / batch * 1e3,
           gpu.generationStep(model, batch, 2048).energy.total() /
               batch * 1e3);
    return 0;
}
