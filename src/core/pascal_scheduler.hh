/**
 * @file
 * PASCAL's hierarchical intra-instance scheduler (Section IV-C).
 *
 * Two priority queues:
 *  - High priority: reasoning-phase requests. Served first with
 *    preferential KV allocation; round-robin among themselves so
 *    short reasoning requests stay responsive under memory pressure.
 *  - Low priority: answering-phase requests (plus demoted reasoning
 *    requests). Time-shared round-robin over whatever GPU memory the
 *    high queue leaves, with the token pacer (in the QoE layer)
 *    smoothing their output.
 *
 * A reasoning request whose KV cache exceeds the demotion threshold
 * (paper: 5000 tokens) is demoted to the low-priority queue so one
 * monster request cannot starve the answering phase.
 *
 * In incremental mode both queues are OrderedQueues (sorted vectors)
 * repaired only for requests whose quantaConsumed key or
 * phase/demotion membership changed, and the demotion rule is re-checked only for requests whose
 * KV moved since the last plan. Predictor-keyed variants build in
 * recompute mode and reuse plans between predictor changes (see
 * IntraScheduler's file comment).
 */

#ifndef PASCAL_CORE_PASCAL_SCHEDULER_HH
#define PASCAL_CORE_PASCAL_SCHEDULER_HH

#include <string>
#include <vector>

#include "src/core/intra_scheduler.hh"
#include "src/core/ordered_queue.hh"

namespace pascal
{
namespace core
{

/**
 * Within-queue strict total order shared by the reactive and
 * speculative PASCAL variants (and by both the incremental repair and
 * the recompute-mode full sort, so the two modes cannot diverge):
 * SLO-class rank first (all zero with classes off, so the level is
 * inert), then fewest quanta consumed, then cached rank score (always
 * 0 for the reactive policy, making the level a no-op), then arrival,
 * then id.
 */
struct PascalQueueOrder
{
    bool
    operator()(const workload::Request* a,
               const workload::Request* b) const
    {
        if (a->schedClassRank != b->schedClassRank)
            return a->schedClassRank < b->schedClassRank;
        if (a->quantaConsumed != b->quantaConsumed)
            return a->quantaConsumed < b->quantaConsumed;
        if (a->schedScore != b->schedScore)
            return a->schedScore < b->schedScore;
        if (a->spec().arrival != b->spec().arrival)
            return a->spec().arrival < b->spec().arrival;
        return a->id() < b->id();
    }
};

/**
 * Phase-aware two-queue scheduler.
 *
 * The demotion rule and the within-queue priority are virtual hooks so
 * speculative variants (PascalSpecScheduler) can demote on *predicted*
 * KV growth and break round-robin ties by predicted remaining length
 * without duplicating the queue mechanics.
 */
class PascalScheduler : public IntraScheduler
{
  public:
    explicit PascalScheduler(SchedLimits limits);

    std::string name() const override { return "PASCAL"; }

    /** Entering the low-priority queue restarts quantum accounting:
     *  each queue has its own token quantum (Section V-A). */
    void onPhaseTransition(workload::Request* req) override;

  protected:
    void planInto(const model::KvPool& pool,
                  IterationPlan& out) override;

    /** @name Incremental-mode hooks */
    /** @{ */
    void onHostedAdded(workload::Request* req) override;
    void onHostedRemoved(workload::Request* req) override;
    void onRequestExecuted(workload::Request* req,
                           bool quanta_changed) override;
    /** Incremental mode: applies pending demotions and vetoes the
     *  reuse if any fired. Keyed reuse: vetoes if a high-queue member
     *  of @p prev would now demote (the build applies it). */
    bool reuseVeto(const IterationPlan& prev) override;
    /** @} */

    /**
     * Demotion rule for a not-yet-demoted reasoning request. The paper
     * reacts to the KV actually exceeding the threshold; speculative
     * variants may fire earlier.
     */
    virtual bool shouldDemote(const workload::Request* req) const;

    /** Same queue and PascalQueueOrder, or different queues. */
    bool keysInOrder(const workload::Request* a,
                     const workload::Request* b) const override;

  private:
    /**
     * Cheap necessary condition for shouldDemote() in incremental mode:
     * only requests passing it are queued as demotion candidates, so a
     * steady batch far below the threshold re-checks nothing at all.
     * Incremental mode runs only without predictor keys, where every
     * variant's demotion rule is the reactive one this mirrors.
     */
    bool
    demotionPossible(const workload::Request* req) const
    {
        return req->kvTokens() > limits.demoteThresholdTokens;
    }

    /** True if @p req belongs to the high-priority queue. */
    static bool isHighPriority(const workload::Request* req);

    /** Recompute-mode path: rebuild, sort, select (the reference
     *  implementation the incremental path must match bit-for-bit). */
    void recomputePlan(const model::KvPool& pool, IterationPlan& out);

    /** Incremental path: process demotions, repair queues, select. */
    void incrementalPlan(const model::KvPool& pool, IterationPlan& out);

    /** Recompute mode: apply the demotion rule to every hosted
     *  reasoning request. */
    void applyDemotion();

    /**
     * Incremental mode: re-check the demotion rule for the pending
     * candidates only (requests whose KV moved).
     * @return true if any request was demoted.
     */
    bool processPendingDemotions();

    /** Demote @p req into the low queue (flag, quantum, queues). */
    void demote(workload::Request* req);

    /** Sort @p queue by (quantaConsumed, key, arrival, id), caching
     *  queueKey() into schedScore first when keys use predictions;
     *  @p memo warm-starts the sort from the queue's last one. */
    void sortQueue(std::vector<workload::Request*>& queue,
                   SortMemo& memo);

    /** Queue of @p req per its tag, for incremental maintenance. */
    OrderedQueue<PascalQueueOrder>& queueOf(const workload::Request* r);

    OrderedQueue<PascalQueueOrder> highQueue{1};
    OrderedQueue<PascalQueueOrder> lowQueue{2};

    /** Requests whose demotion rule must be re-checked at the next
     *  plan boundary (deduped via schedDemotionPending). */
    std::vector<workload::Request*> demotionCandidates;

    /** Recompute-mode scratch partitions (capacity reused) and the
     *  memos that warm-start their sorts. */
    std::vector<workload::Request*> highScratch;
    std::vector<workload::Request*> lowScratch;
    SortMemo highMemo;
    SortMemo lowMemo;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_PASCAL_SCHEDULER_HH
