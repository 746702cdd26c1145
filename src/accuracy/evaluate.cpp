#include "accuracy/evaluate.h"

#include <cmath>

#include "core/logging.h"

namespace pimba {

std::vector<AccuracyModel>
accuracyModels()
{
    std::vector<AccuracyModel> out;
    out.push_back({"RetNet",
                   TinyLmConfig::forModel(SuVariant::RetNet)});
    out.push_back({"GLA", TinyLmConfig::forModel(SuVariant::GLA)});
    out.push_back({"HGRN2", TinyLmConfig::forModel(SuVariant::HGRN2)});
    out.push_back({"Mamba-2",
                   TinyLmConfig::forModel(SuVariant::Mamba2)});
    out.push_back({"Zamba2",
                   TinyLmConfig::forModel(SuVariant::Mamba2, true)});
    out.push_back({"OPT",
                   TinyLmConfig::forModel(SuVariant::None, false, true)});
    // Distinct seeds so the "models" are independent draws.
    for (size_t i = 0; i < out.size(); ++i)
        out[i].cfg.seed = static_cast<uint32_t>(17 + 13 * i);
    return out;
}

double
evalPerplexity(const AccuracyModel &model, const QuantSpec &spec,
               size_t seq_len)
{
    TinyLm lm(model.cfg);
    std::vector<int> stream = lm.sampleStream(seq_len, 0.7,
                                              model.cfg.seed + 100);
    return lm.perplexity(stream, spec);
}

std::vector<TaskSpec>
accuracyTasks()
{
    // Option counts / lengths loosely mirror the real benchmarks
    // (Piqa 2-way, Lambada last-word, HellaSwag 4-way endings,
    // ARC 4-way, WinoGrande 2-way); difficulty is set via the
    // distractor temperature. The fp64 baselines bench_table2_accuracy
    // prints span 37.5 % (OPT on Lambada and ARC-E) to 100 % (HGRN2
    // and Mamba-2 on Piqa), wider than the paper's 45-80 % band; the
    // table compares formats per model, not against the paper's
    // absolute accuracies.
    return {
        {"Piqa", 2, 24, 8, 1.8, 40},
        {"Lambada", 4, 32, 2, 1.6, 40},
        {"HellaSwag", 4, 24, 10, 1.4, 40},
        {"ARC-E", 4, 16, 6, 2.0, 40},
        {"ARC-C", 4, 16, 6, 1.1, 40},
        {"WinoGrande", 2, 20, 6, 1.3, 40},
    };
}

double
evalTaskAccuracy(const AccuracyModel &model, const TaskSpec &task,
                 const QuantSpec &spec)
{
    TinyLm lm(model.cfg);
    int correct = 0;
    for (int trial = 0; trial < task.trials; ++trial) {
        uint32_t base = model.cfg.seed * 1000 + trial * 7 + 3;
        // One long teacher sample provides the prompt plus the true
        // continuation; distractors are independent high-temperature
        // continuations of the same prompt re-sampled from scratch.
        std::vector<int> full = lm.sampleStream(
            static_cast<size_t>(task.promptLen + task.contLen), 0.5,
            base);
        std::vector<int> prompt(full.begin(),
                                full.begin() + task.promptLen);
        std::vector<int> truth(full.begin() + task.promptLen, full.end());

        double best = lm.continuationLogProb(prompt, truth, spec);
        bool truth_wins = true;
        Lfsr32 rng(base * 2246822519u + 5u);
        // Distractors are near-miss perturbations of the true
        // continuation: a few token positions replaced. Harder tasks
        // (lower distractorTemp) perturb fewer positions, so the model
        // must resolve finer log-probability differences — which is
        // exactly what a corrupted state blurs.
        int swaps = std::max(1, static_cast<int>(std::round(
            static_cast<double>(truth.size()) * task.distractorTemp /
            4.0)));
        for (int o = 1; o < task.numOptions; ++o) {
            std::vector<int> distractor = truth;
            for (int sw = 0; sw < swaps; ++sw) {
                // Replace with an in-distribution token drawn from the
                // same teacher stream, so distractors are plausible and
                // only resolvable through the context in the state.
                size_t pos = rng.next() % distractor.size();
                distractor[pos] = full[rng.next() % full.size()];
            }
            double lp = lm.continuationLogProb(prompt, distractor, spec);
            if (lp >= best) {
                truth_wins = false;
                break;
            }
        }
        if (truth_wins)
            ++correct;
    }
    return 100.0 * correct / static_cast<double>(task.trials);
}

double
geomean(const std::vector<double> &values)
{
    PIMBA_ASSERT(!values.empty(), "geomean of nothing");
    double acc = 0.0;
    for (double v : values)
        acc += std::log(std::max(v, 1e-9));
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace pimba
