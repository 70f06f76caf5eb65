#include "src/predict/rank_predictor.hh"

#include <algorithm>
#include <cmath>

namespace pascal
{
namespace predict
{

namespace
{

/** Recent completions each bucket keeps as pairwise opponents. */
constexpr std::size_t kReservoirSize = 64;

/** Cold-start priors shared with the profile predictor's scale. */
constexpr double kPriorReasoningTokens = 600.0;
constexpr double kPriorAnswerTokens = 500.0;

/** log2 prompt buckets per dataset: one per bit of a TokenCount. */
constexpr std::size_t kPromptBuckets = 64;

/** log2 bucket of a prompt length (0 for <= 1 token). */
std::size_t
promptBucket(TokenCount prompt)
{
    std::size_t bucket = 0;
    while (prompt > 1) {
        prompt >>= 1;
        ++bucket;
    }
    return bucket;
}

} // namespace

PairwiseRankPredictor::PairwiseRankPredictor(int warmup_comparisons)
    : warmup(warmup_comparisons)
{}

std::size_t
PairwiseRankPredictor::bucketKey(const workload::Request& req)
{
    return req.datasetId * kPromptBuckets +
           promptBucket(req.spec().promptTokens);
}

const PairwiseRankPredictor::Bucket*
PairwiseRankPredictor::find(const workload::Request& req) const
{
    auto it = buckets.find(bucketKey(req));
    return it == buckets.end() ? nullptr : &it->second;
}

double
PairwiseRankPredictor::winRate(const workload::Request& req) const
{
    const Bucket* bucket = find(req);
    // games == 0 must stay neutral even when warmup is 0: 0/0 would
    // produce a NaN rank score, and NaN keys break std::sort's strict
    // weak ordering in the schedulers.
    if (bucket == nullptr || bucket->games == 0 ||
        bucket->games < static_cast<std::uint64_t>(warmup)) {
        return 0.5;
    }
    return static_cast<double>(bucket->wins) /
           static_cast<double>(bucket->games);
}

double
PairwiseRankPredictor::rankScore(const workload::Request& req) const
{
    if (req.finished())
        return 0.0;
    return 1.0 - winRate(req);
}

double
PairwiseRankPredictor::meanReasoning(const workload::Request& req) const
{
    const Bucket* bucket = find(req);
    if (bucket != nullptr && bucket->reasoningCompletions > 0) {
        return bucket->sumReasoning /
               static_cast<double>(bucket->reasoningCompletions);
    }
    if (globalReasoningCompletions > 0)
        return globalSumReasoning /
               static_cast<double>(globalReasoningCompletions);
    return kPriorReasoningTokens;
}

double
PairwiseRankPredictor::meanAnswer(const workload::Request& req) const
{
    const Bucket* bucket = find(req);
    if (bucket != nullptr && bucket->completions > 0) {
        return bucket->sumAnswer /
               static_cast<double>(bucket->completions);
    }
    if (globalCompletions > 0)
        return globalSumAnswer / static_cast<double>(globalCompletions);
    return kPriorAnswerTokens;
}

double
PairwiseRankPredictor::predictRemainingReasoningTokens(
    const workload::Request& req) const
{
    if (req.spec().startInAnswering ||
        req.phase() != workload::Phase::Reasoning) {
        return 0.0;
    }
    double generated = static_cast<double>(req.reasoningGenerated());
    return std::max(meanReasoning(req) - generated, 1.0);
}

double
PairwiseRankPredictor::predictRemainingTokens(
    const workload::Request& req) const
{
    switch (req.phase()) {
      case workload::Phase::Finished:
        return 0.0;
      case workload::Phase::Reasoning:
        return predictRemainingReasoningTokens(req) + meanAnswer(req);
      case workload::Phase::Answering: {
        double generated = static_cast<double>(req.answerGenerated());
        return std::max(meanAnswer(req) - generated, 1.0);
      }
    }
    return 0.0;
}

void
PairwiseRankPredictor::observeCompletion(const workload::Request& req)
{
    bumpVersion(); // Win rates move: downstream keys must re-rank.
    const workload::RequestSpec& spec = req.spec();
    if (!spec.startInAnswering) {
        globalSumReasoning +=
            static_cast<double>(spec.reasoningTokens);
        ++globalReasoningCompletions;
    }
    ++globalCompletions;
    globalSumAnswer += static_cast<double>(spec.answerTokens);
    // A request without a dataset has no bucket: it teaches the global
    // means only, and find() never meets its key.
    if (req.datasetId == workload::kNoDataset)
        return;

    const std::size_t key = bucketKey(req);
    double total = static_cast<double>(req.totalToGenerate());

    // std::map references are stable across the insertion below.
    Bucket& bucket = buckets[key];

    // Play the completion against every *other* bucket's reservoir:
    // the shorter total generation wins; ties charge both a game but
    // award no win.
    for (auto& [other_key, other] : buckets) {
        if (other_key == key)
            continue;
        for (double opponent : other.reservoir) {
            ++bucket.games;
            ++other.games;
            if (total < opponent)
                ++bucket.wins;
            else if (opponent < total)
                ++other.wins;
        }
    }

    if (!spec.startInAnswering) {
        bucket.sumReasoning +=
            static_cast<double>(spec.reasoningTokens);
        ++bucket.reasoningCompletions;
    }
    bucket.sumAnswer += static_cast<double>(spec.answerTokens);
    ++bucket.completions;

    if (bucket.reservoir.size() < kReservoirSize) {
        bucket.reservoir.push_back(total);
    } else {
        bucket.reservoir[bucket.reservoirNext] = total;
        bucket.reservoirNext =
            (bucket.reservoirNext + 1) % kReservoirSize;
    }
}

} // namespace predict
} // namespace pascal
