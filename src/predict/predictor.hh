/**
 * @file
 * Length-prediction subsystem: speculative estimates of how much work
 * a request has left.
 *
 * The paper's PASCAL is deliberately reactive: the reasoning->answering
 * transition is only *observed* when the </think> token is emitted
 * (src/workload/request.hh), so every policy schedules blind to
 * remaining work. ALISE-style speculative scheduling and
 * learning-to-rank serving show that even noisy output-length
 * estimates unlock SRPT-style gains. A LengthPredictor supplies those
 * estimates; the speculative policies in src/core (SrptScheduler,
 * PascalSpecScheduler, the predictive PascalPlacement variant) consume
 * them, and the Cluster feeds completions back so online predictors
 * can learn during the run.
 *
 * Layering: predict sits between workload and core. It depends only on
 * common + workload; core's schedulers hold a const LengthPredictor*.
 */

#ifndef PASCAL_PREDICT_PREDICTOR_HH
#define PASCAL_PREDICT_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace predict
{

/** Length-predictor selector (SystemConfig knob). */
enum class PredictorType
{
    None,        //!< No speculation: the paper's reactive behaviour.
    Oracle,      //!< Reads the trace spec: exact remaining lengths.
    NoisyOracle, //!< Oracle with multiplicative log-normal error.
    Profile,     //!< Online per-dataset running length quantiles.
    Rank,        //!< Pairwise learning-to-rank over feature buckets.
};

/** Tunables for building a LengthPredictor. */
struct PredictorConfig
{
    PredictorType type = PredictorType::None;

    /**
     * NoisyOracle only: log-space standard deviation of the
     * multiplicative error. Each request gets one persistent factor
     * drawn from lognormal(-sigma^2/2, sigma), so the error has mean 1
     * and is a pure function of {seed, request id} (determinism is
     * independent of prediction call order).
     */
    double noiseSigma = 0.0;

    /** Seed for the NoisyOracle error stream. */
    std::uint64_t seed = 1;

    /** Profile only: which running quantile to predict with (0.5 =
     *  median). Must lie strictly inside (0, 1). */
    double quantile = 0.5;

    /**
     * Profile/Rank: completions a dataset (Profile) or comparison
     * count a feature bucket (Rank) needs before its statistics are
     * trusted; below it the predictor falls back to global statistics
     * and then to fixed priors.
     */
    int warmupCompletions = 8;

    /** Validate; calls fatal() with an actionable message. */
    void validate() const;

    /** Stable label for reports/sweep labels, e.g. "noisy(0.50)". */
    std::string name() const;
};

/**
 * Interface: speculative remaining-work estimates for one request.
 *
 * Prediction methods are const (cheap, repeatable, callable from
 * schedulers every iteration); observeCompletion() is the online
 * learning hook the Cluster invokes when a request finishes. One
 * predictor instance is shared by every instance of a cluster, so
 * profile/rank predictors learn from cluster-wide completions.
 */
class LengthPredictor
{
  public:
    virtual ~LengthPredictor() = default;

    /** Predictor label for reports. */
    virtual std::string name() const = 0;

    /**
     * Predicted decode tokens this request will still generate
     * (remaining reasoning + remaining answering). >= 0; exactly 0 for
     * finished requests.
     */
    virtual double
    predictRemainingTokens(const workload::Request& req) const = 0;

    /**
     * Predicted reasoning tokens still to come. 0 for requests already
     * answering (the transition has been observed) and for
     * startInAnswering requests, which never decode reasoning tokens.
     */
    virtual double
    predictRemainingReasoningTokens(const workload::Request& req)
        const = 0;

    /**
     * Scheduling priority: lower = serve first. Length-based
     * predictors return predictRemainingTokens(); the rank predictor
     * returns a win-rate score in [0, 1] that orders requests without
     * committing to a length. Only the *ordering* is meaningful across
     * requests of one predictor; scores from different predictors are
     * not comparable.
     */
    virtual double
    rankScore(const workload::Request& req) const
    {
        return predictRemainingTokens(req);
    }

    /** Online learning hook: @p req just generated its final token. */
    virtual void observeCompletion(const workload::Request& req)
    {
        (void)req;
    }

    /**
     * Monotone state version. Advances whenever a served prediction
     * for a request that did not itself progress may have changed;
     * while it holds, every prediction is a pure function of the
     * request's own progress, so a keyed scheduler re-keys only the
     * members that ran. At the first plan boundary after it moves, a
     * keyed scheduler re-keys and repairs every queue, and keeps its
     * plan only if no member moved (IntraScheduler::reusePlan()).
     * Stateless predictors (oracle, noisy oracle) never bump it; the
     * profile predictor bumps it only when a served quantile changes,
     * and the rank predictor at every completion.
     */
    std::uint64_t version() const { return versionCounter; }

  protected:
    /** Online learners call this whenever their served predictions
     *  may have changed. */
    void bumpVersion() { ++versionCounter; }

  private:
    std::uint64_t versionCounter = 0;
};

/**
 * Build the predictor selected by @p cfg (validated).
 *
 * @return nullptr for PredictorType::None — "no speculation" is the
 *         zero-cost default, not a null-object predictor.
 */
std::unique_ptr<LengthPredictor>
makePredictor(const PredictorConfig& cfg);

/**
 * The canonical error-sensitivity sweep: oracle, noisy oracle at
 * sigma 0.2 / 0.5 / 1.0, profile, rank. Shared by policy_explorer and
 * bench_predictor_accuracy so the printed sweep and the CI-tracked
 * Pareto artifact never drift apart.
 */
std::vector<PredictorConfig> standardSweepPredictors();

} // namespace predict
} // namespace pascal

#endif // PASCAL_PREDICT_PREDICTOR_HH
