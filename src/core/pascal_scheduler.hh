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
 * Both queues are OrderedQueues in QueueOrder, which for PASCAL
 * reduces to (quantaConsumed, arrival, id) and for PASCAL-Spec to
 * (quantaConsumed, predicted length, arrival, id). They are repaired
 * only for requests whose key or phase/demotion membership changed.
 * The demotion rule is re-checked only for candidates: high-queue
 * requests whose KV moved into reach of the threshold since the last
 * plan, and, when the predictor version moves, every high-queue
 * request inside the lookahead window (demotionWindow()).
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
    explicit PascalScheduler(SchedLimits limits)
        : PascalScheduler(limits, false)
    {}

    std::string name() const override { return "PASCAL"; }

    /** Entering the low-priority queue restarts quantum accounting:
     *  each queue has its own token quantum (Section V-A). */
    void onPhaseTransition(workload::Request* req) override;

  protected:
    PascalScheduler(SchedLimits limits, bool keyed);

    /** Processes pending demotions, repairs both queues, and walks the
     *  high queue ahead of the low one. */
    void planInto(const model::KvPool& pool,
                  IterationPlan& out) override;

    /** @name Queue-maintenance hooks */
    /** @{ */
    void onHostedAdded(workload::Request* req) override;
    void onHostedRemoved(workload::Request* req) override;
    void onRequestExecuted(workload::Request* req,
                           bool quanta_changed) override;
    void onPredictionsMoved() override;
    bool repairQueues() override;
    /** Queue of @p req per its tag. */
    OrderedQueue& queueOf(const workload::Request* r) override;
    /** Applies pending demotions and vetoes the reuse if any fired. */
    bool reuseVeto(const IterationPlan& prev) override;
    /** @} */

    /** Twin: both queues from scratch, demoting every high-queue
     *  request the rule now selects. */
    void rebuildQueues() override;

    /**
     * Demotion rule for a not-yet-demoted reasoning request. The paper
     * reacts to the KV actually exceeding the threshold; speculative
     * variants may fire earlier.
     */
    virtual bool shouldDemote(const workload::Request* req) const;

    /** KV tokens below the threshold at which shouldDemote() may
     *  first fire (0: only past the threshold). */
    virtual TokenCount demotionWindow() const { return 0; }

  private:
    /**
     * Cheap necessary condition for shouldDemote(): only requests
     * passing it are queued as demotion candidates, so a steady batch
     * far below the threshold re-checks nothing at all.
     */
    bool
    demotionPossible(const workload::Request* req) const
    {
        return req->kvTokens() + demotionWindow() >
               limits.demoteThresholdTokens;
    }

    /** Queue @p req for a demotion-rule re-check at the next plan
     *  boundary (deduped via schedDemotionPending). */
    void
    addDemotionCandidate(workload::Request* req)
    {
        if (!req->schedDemotionPending && demotionPossible(req)) {
            req->schedDemotionPending = true;
            demotionCandidates.push_back(req);
        }
    }

    /** True if @p req belongs to the high-priority queue. */
    static bool isHighPriority(const workload::Request* req);

    /**
     * Re-check the demotion rule for the pending candidates only.
     * @return true if any request was demoted.
     */
    bool processPendingDemotions();

    /** Demote @p req into the low queue (flag, quantum, queues). */
    void demote(workload::Request* req);

    /** The base queue (tag 1) holds the high-priority queue. */
    OrderedQueue& highQueue = queue;
    OrderedQueue lowQueue{2};

    /** Requests whose demotion rule must be re-checked at the next
     *  plan boundary (deduped via schedDemotionPending). */
    std::vector<workload::Request*> demotionCandidates;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_PASCAL_SCHEDULER_HH
