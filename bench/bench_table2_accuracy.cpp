/**
 * @file
 * Table 2 — per-task accuracy of the GPU baseline (fp64/fp16 state)
 * versus Pimba (MX8 + stochastic rounding state). Paper anchor: the
 * geomean difference stays within a few tenths of a point.
 */

#include <cstdio>

#include "core/args.h"
#include "accuracy/evaluate.h"
#include "core/table.h"

using namespace pimba;

int
main(int argc, char **argv)
{
    ArgParser args("bench_table2_accuracy",
                   "Table 2: accuracy of GPU fp16 vs Pimba MX8-SR state.");
    if (!args.parse(argc, argv))
        return args.exitCode();

    printf("=== Table 2: accuracy, GPU vs Pimba (MX8-SR state) ===\n");
    printf("(synthetic task stand-ins; see docs/figures.md)\n\n");

    QuantSpec gpu_spec{};
    QuantSpec pimba_spec{NumberFormat::MX8, Rounding::Stochastic};
    auto tasks = accuracyTasks();

    std::vector<std::string> header = {"model", "method", "ppl"};
    for (const auto &task : tasks)
        header.push_back(task.name);
    header.push_back("Geomean");
    Table t(header);

    for (const auto &model : accuracyModels()) {
        for (bool pimba : {false, true}) {
            const QuantSpec &spec = pimba ? pimba_spec : gpu_spec;
            std::vector<std::string> row = {model.name,
                                            pimba ? "Pimba" : "GPU"};
            row.push_back(fmt(evalPerplexity(model, spec), 2));
            std::vector<double> accs;
            for (const auto &task : tasks) {
                double acc = evalTaskAccuracy(model, task, spec);
                accs.push_back(acc);
                row.push_back(fmt(acc, 1));
            }
            row.push_back(fmt(geomean(accs), 1));
            t.addRow(row);
        }
        fprintf(stderr, "  %s done\n", model.name.c_str());
    }
    printf("%s", t.str().c_str());
    printf("\nExpected shape: per-model GPU and Pimba rows agree to "
           "within a few\npoints on every task (MX8-SR state is "
           "near-lossless).\n");
    return 0;
}
