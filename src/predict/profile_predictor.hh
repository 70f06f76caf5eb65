/**
 * @file
 * DatasetProfilePredictor: online per-dataset running quantiles of
 * reasoning/answering lengths, updated as requests complete.
 *
 * Traces label every request with its source dataset
 * (RequestSpec::dataset), and the paper's Fig. 8/14 show the datasets
 * have very different length profiles. The predictor exploits exactly
 * that: it keeps a running quantile (default: median) of the observed
 * reasoning and answering lengths per dataset and predicts remaining
 * work as "the dataset's typical length minus what this request has
 * already generated". Until a dataset has seen warmupCompletions
 * finishes it falls back to the all-dataset statistics, and before any
 * completion at all to fixed chat-scale priors.
 *
 * The served expectations (per dataset, plus the fallback) are
 * recomputed once per completion, so a query is one index into a table
 * by the request's interned Request::datasetId plus arithmetic, and
 * the version moves only when a served value does.
 */

#ifndef PASCAL_PREDICT_PROFILE_PREDICTOR_HH
#define PASCAL_PREDICT_PROFILE_PREDICTOR_HH

#include <cstddef>
#include <string>
#include <vector>

#include "src/predict/predictor.hh"

namespace pascal
{
namespace predict
{

/**
 * Exact running quantile: samples are kept sorted as they arrive, so
 * a query is O(1) interpolation and an observation one binary search
 * plus a shift. Completion counts per run are small (thousands), so
 * exactness is cheaper than an approximate sketch would be to verify.
 */
class RunningQuantile
{
  public:
    /** Record one observation (sorted insert, after equal samples). */
    void add(double x);

    /** Empirical @p q quantile (q in (0,1)); 0 when empty. */
    double quantile(double q) const;

    std::size_t count() const { return samples.size(); }

  private:
    std::vector<double> samples; //!< Always ascending.
};

/** Online per-dataset running-quantile length predictor. */
class DatasetProfilePredictor : public LengthPredictor
{
  public:
    /**
     * @param quantile Which quantile to predict with (0.5 = median).
     * @param warmup_completions Completions a dataset needs before its
     *        own statistics are used.
     */
    DatasetProfilePredictor(double quantile, int warmup_completions);

    std::string name() const override { return "profile"; }

    double predictRemainingTokens(
        const workload::Request& req) const override;

    double predictRemainingReasoningTokens(
        const workload::Request& req) const override;

    /** Feeds the finished request's realized lengths into its
     *  dataset's (and the global) running quantiles. */
    void observeCompletion(const workload::Request& req) override;

    /** Completions observed for @p dataset (diagnostics/tests). */
    std::size_t observations(workload::DatasetId dataset) const;

  private:
    /** Expected total (reasoning, answering) lengths a query serves. */
    struct Served
    {
        double reasoning = 0.0;
        double answering = 0.0;

        bool
        operator==(const Served& o) const
        {
            return reasoning == o.reasoning && answering == o.answering;
        }
    };

    struct Lengths
    {
        RunningQuantile reasoning;
        RunningQuantile answering;

        /** Record one completion's realized lengths. */
        void add(const workload::RequestSpec& spec);
    };

    /** What @p req's dataset serves: its own row, else the fallback
     *  (always for kNoDataset, which never gets a row). */
    const Served&
    servedFor(const workload::Request& req) const
    {
        return req.datasetId < servedTable.size()
                   ? servedTable[req.datasetId]
                   : fallback;
    }

    /** Remaining reasoning given @p s (0 once answering). */
    double remainingReasoning(const workload::Request& req,
                              const Served& s) const;

    double q;
    int warmup;

    /** Indexed by DatasetId; a dataset past the end, or with no
     *  completion yet, has no statistics of its own. */
    std::vector<Lengths> perDataset;
    Lengths global;

    /**
     * The served table, indexed by DatasetId and refreshed once per
     * completion: a dataset with completions takes, field by field,
     * its own quantile once warmed up and the fallback before that;
     * one without takes the fallback.
     */
    std::vector<Served> servedTable;

    /** Served for unseen datasets: the global quantile, or the fixed
     *  prior before any sample. */
    Served fallback;
};

} // namespace predict
} // namespace pascal

#endif // PASCAL_PREDICT_PROFILE_PREDICTOR_HH
