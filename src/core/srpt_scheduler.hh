/**
 * @file
 * Speculative shortest-remaining-processing-time scheduler.
 *
 * Orders every schedulable request by the wired LengthPredictor's rank
 * score (predicted remaining decode tokens for length predictors, a
 * win-rate score for the pairwise rank predictor) and serves the
 * shortest first. With the oracle predictor this is true preemptive
 * SRPT — the classical mean-latency optimum — which bounds what any
 * speculative policy can gain; with noisy/learned predictors it
 * degrades gracefully because mis-ranked requests are merely scheduled
 * late, never starved of correctness.
 *
 * Like FCFS, SRPT needs no token quantum: priorities come entirely
 * from the predictions, so quantum accounting is disabled.
 *
 * Rank scores move with the request's own progress, so SRPT builds in
 * recompute mode (one prediction per schedulable request and one
 * warm-started sort per plan) and reuses a plan between predictor
 * changes while its batch keeps its order (see IntraScheduler's file
 * comment).
 */

#ifndef PASCAL_CORE_SRPT_SCHEDULER_HH
#define PASCAL_CORE_SRPT_SCHEDULER_HH

#include <string>

#include "src/core/intra_scheduler.hh"

namespace pascal
{
namespace core
{

/** Predicted-shortest-remaining-first scheduler. */
class SrptScheduler : public IntraScheduler
{
  public:
    explicit SrptScheduler(SchedLimits limits);

    std::string name() const override { return "SRPT"; }

    bool keysUsePredictions() const override { return true; }

  protected:
    /** @throws FatalError if no predictor is wired (SRPT cannot rank
     *  requests blind). */
    void planInto(const model::KvPool& pool,
                  IterationPlan& out) override;

    /** The predictor's rank score. */
    double queueKey(const workload::Request* req) const override;

    /** SRPT order over the cached rank scores. */
    bool keysInOrder(const workload::Request* a,
                     const workload::Request* b) const override;

  private:
    SortMemo orderMemo;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_SRPT_SCHEDULER_HH
