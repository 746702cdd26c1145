/**
 * @file
 * Serving-system shoot-out: compare all five systems (GPU, GPU+Q,
 * GPU+PIM, Pimba, NeuPIMs) on a model and batch size given on the
 * command line.
 *
 * Usage: serving_comparison [--model m] [--batch n]
 *   --model: retnet | gla | hgrn2 | mamba2 | zamba2 | opt (default mamba2)
 *   --batch: requests per batch (default 128)
 */

#include <cstdio>

#include "config/scenario.h"
#include "core/args.h"
#include "core/table.h"
#include "sim/serving_sim.h"

using namespace pimba;

namespace {

/// Zoo lookup through the shared scenario registry, with the short
/// family aliases this tool has always accepted ("mamba2" ->
/// "mamba2-2.7b", "opt" -> "opt-7b").
ModelConfig
pickModel(const std::string &name)
{
    for (const std::string &candidate :
         {name, name + "-7b", name + "-2.7b"}) {
        try {
            return modelPreset(candidate);
        } catch (const ConfigError &) {
        }
    }
    try {
        return modelPreset(name); // rethrow for the name list
    } catch (const ConfigError &e) {
        fprintf(stderr, "serving_comparison: %s\n", e.what());
        exit(1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model_name = "mamba2";
    int batch = 128;
    ArgParser args("serving_comparison",
                   "Compare all five systems on one model and batch "
                   "size (per-step latency, energy, memory).");
    args.option("--model", "name",
                "retnet | gla | hgrn2 | mamba2 | zamba2 | opt",
                &model_name);
    args.option("--batch", "n", "requests per batch", &batch);
    if (!args.parse(argc, argv))
        return args.exitCode();
    ModelConfig model = pickModel(model_name);

    printf("comparing systems on %s, batch %d, (2048, 2048) lengths\n\n",
           model.name.c_str(), batch);

    Table t({"system", "tok/s", "speedup", "step (ms)", "SU (ms)",
             "Attn (ms)", "energy (J/step)", "memory (GB)"});
    double base = 0.0;
    for (SystemKind kind :
         {SystemKind::GPU, SystemKind::GPU_Q, SystemKind::GPU_PIM,
          SystemKind::PIMBA, SystemKind::NEUPIMS}) {
        ServingSimulator sim(makeSystem(kind));
        double thr =
            sim.generationThroughput(model, batch, 2048, 2048).value();
        if (kind == SystemKind::GPU)
            base = thr;
        auto step = sim.averagedStep(model, batch, 2048, 2048);
        auto mem = sim.memoryUsage(model, batch, 3072);
        t.addRow({systemName(kind), fmt(thr, 0), fmtRatio(thr / base),
                  fmt(step.seconds.value() * 1e3, 2),
                  fmt(step.latency.get(BreakdownKey::StateUpdate) * 1e3, 2),
                  fmt(step.latency.get(BreakdownKey::Attention) * 1e3, 2),
                  fmt(step.energy.total(), 3),
                  fmt(mem.total().value() / 1e9, 1)});
    }
    printf("%s", t.str().c_str());
    return 0;
}
