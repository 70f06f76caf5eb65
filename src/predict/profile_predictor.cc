#include "src/predict/profile_predictor.hh"

#include <algorithm>
#include <cmath>

namespace pascal
{
namespace predict
{

namespace
{

/** Cold-start priors, roughly the paper's chat-dataset means (Fig. 8):
 *  used before any completion has been observed anywhere. */
constexpr double kPriorReasoningTokens = 600.0;
constexpr double kPriorAnswerTokens = 500.0;

} // namespace

void
RunningQuantile::add(double x)
{
    samples.insert(std::upper_bound(samples.begin(), samples.end(), x),
                   x);
}

double
RunningQuantile::quantile(double q) const
{
    if (samples.empty())
        return 0.0;
    double pos = q * static_cast<double>(samples.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

DatasetProfilePredictor::DatasetProfilePredictor(double quantile,
                                                 int warmup_completions)
    : q(quantile), warmup(warmup_completions),
      fallback{kPriorReasoningTokens, kPriorAnswerTokens}
{}

double
DatasetProfilePredictor::remainingReasoning(const workload::Request& req,
                                            const Served& s) const
{
    if (req.spec().startInAnswering ||
        req.phase() != workload::Phase::Reasoning) {
        return 0.0;
    }
    // The request is observably still reasoning, so at least one more
    // reasoning token is coming even when it has outlived the
    // quantile.
    double generated = static_cast<double>(req.reasoningGenerated());
    return std::max(s.reasoning - generated, 1.0);
}

double
DatasetProfilePredictor::predictRemainingReasoningTokens(
    const workload::Request& req) const
{
    return remainingReasoning(req, servedFor(req));
}

double
DatasetProfilePredictor::predictRemainingTokens(
    const workload::Request& req) const
{
    switch (req.phase()) {
      case workload::Phase::Finished:
        return 0.0;
      case workload::Phase::Reasoning: {
        const Served& s = servedFor(req);
        return remainingReasoning(req, s) + s.answering;
      }
      case workload::Phase::Answering: {
        double generated = static_cast<double>(req.answerGenerated());
        return std::max(servedFor(req).answering - generated, 1.0);
      }
    }
    return 0.0;
}

void
DatasetProfilePredictor::Lengths::add(const workload::RequestSpec& spec)
{
    // startInAnswering requests never decode reasoning tokens here, so
    // their (zero-length) reasoning phase would only skew the
    // reasoning quantile downward for requests that do reason.
    if (!spec.startInAnswering)
        reasoning.add(static_cast<double>(spec.reasoningTokens));
    answering.add(static_cast<double>(spec.answerTokens));
}

void
DatasetProfilePredictor::observeCompletion(const workload::Request& req)
{
    global.add(req.spec());
    // A request without a dataset teaches the global statistics only.
    if (req.datasetId != workload::kNoDataset) {
        if (req.datasetId >= perDataset.size()) {
            // New rows served the fallback until now.
            perDataset.resize(req.datasetId + 1u);
            servedTable.resize(req.datasetId + 1u, fallback);
        }
        perDataset[req.datasetId].add(req.spec());
    }

    // Re-serve every dataset: the fallback moved with the global
    // statistics. Keys must re-rank only if a served value changed.
    const Served next_fallback = {
        global.reasoning.count() > 0 ? global.reasoning.quantile(q)
                                     : kPriorReasoningTokens,
        global.answering.count() > 0 ? global.answering.quantile(q)
                                     : kPriorAnswerTokens};
    bool changed = !(next_fallback == fallback);
    fallback = next_fallback;
    const auto warm = static_cast<std::size_t>(warmup);
    for (std::size_t d = 0; d < servedTable.size(); ++d) {
        const Lengths& stats = perDataset[d];
        // Every completion adds an answering sample.
        const bool seen = stats.answering.count() > 0;
        const Served s = {seen && stats.reasoning.count() >= warm
                              ? stats.reasoning.quantile(q)
                              : fallback.reasoning,
                          seen && stats.answering.count() >= warm
                              ? stats.answering.quantile(q)
                              : fallback.answering};
        changed = changed || !(s == servedTable[d]);
        servedTable[d] = s;
    }
    if (changed)
        bumpVersion();
}

std::size_t
DatasetProfilePredictor::observations(workload::DatasetId dataset) const
{
    return dataset < perDataset.size()
               ? perDataset[dataset].answering.count()
               : 0;
}

} // namespace predict
} // namespace pascal
