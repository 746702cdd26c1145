/**
 * @file
 * Figure 4 — perplexity of SU-LLMs and transformer LLMs with the state
 * (resp. KV cache) quantized to each 8-bit format, with and without
 * stochastic rounding. Paper shape: fp8 formats blow up on SU-LLMs
 * (swamping), SR substantially recovers them, int8/MX8 track fp16, and
 * the transformer is insensitive to every format.
 */

#include <cstdio>

#include "core/args.h"
#include "accuracy/evaluate.h"
#include "core/table.h"

using namespace pimba;

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig04_quant_ppl",
                   "Figure 4: perplexity under 8-bit state/KV quantization formats.");
    if (!args.parse(argc, argv))
        return args.exitCode();

    printf("=== Figure 4: perplexity under 8-bit state/KV formats ===\n");
    printf("(synthetic WikiText-2 stand-in; see docs/figures.md for the "
           "substitution)\n\n");

    auto specs = figure4Specs();
    std::vector<std::string> header = {"model"};
    for (const auto &s : specs)
        header.push_back(s.name());
    Table t(header);

    for (const auto &model : accuracyModels()) {
        std::vector<std::string> row = {model.name};
        for (const auto &s : specs)
            row.push_back(fmt(evalPerplexity(model, s), 2));
        t.addRow(row);
        fprintf(stderr, "  %s done\n", model.name.c_str());
    }
    printf("%s", t.str().c_str());
    printf("\nExpected shape: e4m3/e5m2 columns elevated for the four "
           "SU-LLMs,\nSR variants recover much of the loss, int8/mx8 "
           "track fp16, OPT flat.\n");
    return 0;
}
