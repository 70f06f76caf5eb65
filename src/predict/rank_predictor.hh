/**
 * @file
 * PairwiseRankPredictor: learning-to-rank over feature buckets.
 *
 * "Ranking before serving" style: instead of regressing a length, the
 * predictor learns which *kinds* of requests tend to finish before
 * which others, and emits a rank score. Requests are bucketed by the
 * features observable at scheduling time — source dataset (its
 * interned Request::datasetId) and a log2 prompt-length bucket — and
 * every completion plays pairwise games against a bounded reservoir of
 * recent completions from every other bucket; the shorter total
 * generation wins. A bucket's score is its
 * overall win rate, so rankScore() = 1 - winRate orders likely-short
 * requests first without committing to a token count.
 *
 * For consumers that do need a length (predictive demotion, predictive
 * placement), the predictor falls back to per-bucket running means of
 * the realized reasoning/answering lengths.
 */

#ifndef PASCAL_PREDICT_RANK_PREDICTOR_HH
#define PASCAL_PREDICT_RANK_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/predict/predictor.hh"

namespace pascal
{
namespace predict
{

/** Pairwise win-rate learning-to-rank predictor. */
class PairwiseRankPredictor : public LengthPredictor
{
  public:
    /** @param warmup_comparisons Pairwise games a bucket needs before
     *         its win rate is trusted (below: neutral 0.5). */
    explicit PairwiseRankPredictor(int warmup_comparisons);

    std::string name() const override { return "rank"; }

    /** Bucket win-rate score in [0, 1]: lower = historically shorter.
     *  Neutral 0.5 for unwarmed buckets; 0 for finished requests. */
    double rankScore(const workload::Request& req) const override;

    double predictRemainingTokens(
        const workload::Request& req) const override;

    double predictRemainingReasoningTokens(
        const workload::Request& req) const override;

    /** Plays the finished request against every other bucket's
     *  reservoir and records its realized lengths. */
    void observeCompletion(const workload::Request& req) override;

    /** Feature-bucket key of @p req: its dataset id and log2 prompt
     *  bucket packed into one index (tests/diagnostics). */
    static std::size_t bucketKey(const workload::Request& req);

    /** Win rate of the bucket @p req falls into (0.5 if unwarmed). */
    double winRate(const workload::Request& req) const;

  private:
    struct Bucket
    {
        std::uint64_t wins = 0;
        std::uint64_t games = 0;

        /** Running means of realized lengths (the length fallback).
         *  Reasoning keeps its own count: startInAnswering
         *  completions contribute no reasoning sample (they would
         *  dilute the mean toward 0 and mute predictive demotion). */
        double sumReasoning = 0.0;
        double sumAnswer = 0.0;
        std::uint64_t completions = 0;
        std::uint64_t reasoningCompletions = 0;

        /** Ring buffer of recent total generation lengths: the
         *  opponents future completions play against. */
        std::vector<double> reservoir;
        std::size_t reservoirNext = 0;
    };

    const Bucket* find(const workload::Request& req) const;
    double meanReasoning(const workload::Request& req) const;
    double meanAnswer(const workload::Request& req) const;

    int warmup;

    /** std::map keyed by bucketKey(): deterministic iteration, so
     *  pairwise game order is a pure function of completion order. */
    std::map<std::size_t, Bucket> buckets;

    /** Global length means (fallback for unseen buckets). */
    double globalSumReasoning = 0.0;
    double globalSumAnswer = 0.0;
    std::uint64_t globalCompletions = 0;
    std::uint64_t globalReasoningCompletions = 0;
};

} // namespace predict
} // namespace pascal

#endif // PASCAL_PREDICT_RANK_PREDICTOR_HH
