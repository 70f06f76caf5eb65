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
    : q(quantile), warmup(warmup_completions)
{}

const RunningQuantile*
DatasetProfilePredictor::pick(const std::string& dataset,
                              bool reasoning) const
{
    auto it = perDataset.find(dataset);
    if (it != perDataset.end()) {
        const RunningQuantile& own =
            reasoning ? it->second.reasoning : it->second.answering;
        if (own.count() >= static_cast<std::size_t>(warmup))
            return &own;
    }
    const RunningQuantile& all =
        reasoning ? global.reasoning : global.answering;
    return all.count() > 0 ? &all : nullptr;
}

double
DatasetProfilePredictor::expectedReasoningTokens(
    const workload::Request& req) const
{
    const RunningQuantile* stats = pick(req.spec().dataset, true);
    return stats != nullptr ? stats->quantile(q)
                            : kPriorReasoningTokens;
}

double
DatasetProfilePredictor::expectedAnswerTokens(
    const workload::Request& req) const
{
    const RunningQuantile* stats = pick(req.spec().dataset, false);
    return stats != nullptr ? stats->quantile(q) : kPriorAnswerTokens;
}

double
DatasetProfilePredictor::predictRemainingReasoningTokens(
    const workload::Request& req) const
{
    if (req.spec().startInAnswering ||
        req.phase() != workload::Phase::Reasoning) {
        return 0.0;
    }
    // The request is observably still reasoning, so at least one more
    // reasoning token is coming even when it has outlived the
    // quantile.
    double expected = expectedReasoningTokens(req);
    double generated = static_cast<double>(req.reasoningGenerated());
    return std::max(expected - generated, 1.0);
}

double
DatasetProfilePredictor::predictRemainingTokens(
    const workload::Request& req) const
{
    switch (req.phase()) {
      case workload::Phase::Finished:
        return 0.0;
      case workload::Phase::Reasoning:
        return predictRemainingReasoningTokens(req) +
               expectedAnswerTokens(req);
      case workload::Phase::Answering: {
        double expected = expectedAnswerTokens(req);
        double generated = static_cast<double>(req.answerGenerated());
        return std::max(expected - generated, 1.0);
      }
    }
    return 0.0;
}

void
DatasetProfilePredictor::observeCompletion(const workload::Request& req)
{
    bumpVersion(); // Quantiles move: downstream keys must re-rank.
    const workload::RequestSpec& spec = req.spec();
    Lengths& own = perDataset[spec.dataset];
    // startInAnswering requests never decode reasoning tokens here, so
    // their (zero-length) reasoning phase would only skew the
    // reasoning quantile downward for requests that do reason.
    if (!spec.startInAnswering) {
        own.reasoning.add(static_cast<double>(spec.reasoningTokens));
        global.reasoning.add(static_cast<double>(spec.reasoningTokens));
    }
    own.answering.add(static_cast<double>(spec.answerTokens));
    global.answering.add(static_cast<double>(spec.answerTokens));
}

std::size_t
DatasetProfilePredictor::observations(const std::string& dataset) const
{
    auto it = perDataset.find(dataset);
    return it == perDataset.end() ? 0 : it->second.answering.count();
}

} // namespace predict
} // namespace pascal
