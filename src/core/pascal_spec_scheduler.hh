/**
 * @file
 * PASCAL-Spec: PASCAL's hierarchical queues made speculative.
 *
 * Two deviations from the reactive PascalScheduler, both driven by the
 * wired LengthPredictor:
 *
 *  - Predictive demotion. The paper demotes a reasoning request only
 *    after its KV actually exceeds the threshold (5000 tokens), which
 *    means a monster request always claims high-priority service for
 *    its first 5000 tokens. PASCAL-Spec demotes as soon as the request
 *    enters the lookahead window below the threshold
 *    (SchedLimits::demoteLookaheadTokens) *and* its predicted final
 *    reasoning KV exceeds the threshold — the doomed request stops
 *    competing with short reasoning work up to a lookahead window
 *    early. Under the oracle predictor the demoted *set* is exactly
 *    the paper's; only the timing moves earlier. The reactive rule is
 *    kept as a safety net for under-predictions.
 *
 *  - Predicted-length tie-breaking. Within each queue, requests with
 *    equal quanta consumed are ordered by predicted remaining work
 *    (shortest first) instead of plain arrival order, blending SRPT
 *    into the round-robin fairness envelope: the quantum still bounds
 *    how long a mis-prediction can starve anyone.
 */

#ifndef PASCAL_CORE_PASCAL_SPEC_SCHEDULER_HH
#define PASCAL_CORE_PASCAL_SPEC_SCHEDULER_HH

#include <string>

#include "src/core/pascal_scheduler.hh"

namespace pascal
{
namespace core
{

/** Phase-aware two-queue scheduler with speculative demotion and
 *  predicted-length tie-breaking. */
class PascalSpecScheduler : public PascalScheduler
{
  public:
    explicit PascalSpecScheduler(SchedLimits limits);

    std::string name() const override { return "PASCAL-Spec"; }

    bool keysUsePredictions() const override { return true; }

  protected:
    /** Reactive rule OR (inside the lookahead window AND predicted
     *  final reasoning KV exceeds the threshold). */
    bool shouldDemote(const workload::Request* req) const override;

    /** Predicted remaining work (rank score); 0 without a predictor,
     *  which degrades to the paper's arrival-order round robin. */
    double queueKey(const workload::Request* req) const override;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_PASCAL_SPEC_SCHEDULER_HH
