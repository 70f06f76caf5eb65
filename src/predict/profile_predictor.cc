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

const DatasetProfilePredictor::Served&
DatasetProfilePredictor::servedFor(const workload::Request& req) const
{
    const std::string& dataset = req.spec().dataset;
    for (const ServedEntry& e : servedTable) {
        if (e.dataset == dataset)
            return e.served;
    }
    return fallback;
}

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
DatasetProfilePredictor::observeCompletion(const workload::Request& req)
{
    const workload::RequestSpec& spec = req.spec();
    auto [own_it, inserted] = perDataset.try_emplace(spec.dataset);
    Lengths& own = own_it->second;
    if (inserted) // It served the fallback until now.
        servedTable.push_back({spec.dataset, &own, fallback});
    // startInAnswering requests never decode reasoning tokens here, so
    // their (zero-length) reasoning phase would only skew the
    // reasoning quantile downward for requests that do reason.
    if (!spec.startInAnswering) {
        own.reasoning.add(static_cast<double>(spec.reasoningTokens));
        global.reasoning.add(static_cast<double>(spec.reasoningTokens));
    }
    own.answering.add(static_cast<double>(spec.answerTokens));
    global.answering.add(static_cast<double>(spec.answerTokens));

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
    for (ServedEntry& e : servedTable) {
        const Served s = {e.stats->reasoning.count() >= warm
                              ? e.stats->reasoning.quantile(q)
                              : fallback.reasoning,
                          e.stats->answering.count() >= warm
                              ? e.stats->answering.quantile(q)
                              : fallback.answering};
        changed = changed || !(s == e.served);
        e.served = s;
    }
    if (changed)
        bumpVersion();
}

std::size_t
DatasetProfilePredictor::observations(const std::string& dataset) const
{
    auto it = perDataset.find(dataset);
    return it == perDataset.end() ? 0 : it->second.answering.count();
}

} // namespace predict
} // namespace pascal
