/**
 * @file
 * Round-robin time-sharing scheduler (Section II-C, Fig. 2(c)).
 *
 * Every request receives a fixed token quantum (paper: 500). Having
 * consumed more quanta lowers a request's priority, so under memory
 * pressure the longest-running requests are preempted first and newly
 * arrived requests are admitted promptly, eliminating head-of-line
 * blocking at the cost of preemption overhead. The policy is
 * phase-unaware: reasoning and answering tokens count against the same
 * quantum.
 *
 * The (quantaConsumed, arrival, id) key only moves on a quantum
 * rollover — once every `quantum` emitted tokens per request — so in
 * incremental mode a plan sorts only the handful of requests that
 * rolled over since the last plan and merges them back into the
 * queue's sorted vector.
 */

#ifndef PASCAL_CORE_RR_SCHEDULER_HH
#define PASCAL_CORE_RR_SCHEDULER_HH

#include <string>

#include "src/core/intra_scheduler.hh"
#include "src/core/ordered_queue.hh"

namespace pascal
{
namespace core
{

/** Classic RR priority: fewest quanta, then arrival order, below the
 *  SLO-class rank (inert all-zero level with classes off). */
struct RrOrder
{
    bool
    operator()(const workload::Request* a,
               const workload::Request* b) const
    {
        if (a->schedClassRank != b->schedClassRank)
            return a->schedClassRank < b->schedClassRank;
        if (a->quantaConsumed != b->quantaConsumed)
            return a->quantaConsumed < b->quantaConsumed;
        if (a->spec().arrival != b->spec().arrival)
            return a->spec().arrival < b->spec().arrival;
        return a->id() < b->id();
    }
};

/** Token-quantum round-robin across all hosted requests. */
class RrScheduler : public IntraScheduler
{
  public:
    explicit RrScheduler(SchedLimits limits);

    std::string name() const override { return "RR"; }

  protected:
    void planInto(const model::KvPool& pool,
                  IterationPlan& out) override;

    void onHostedAdded(workload::Request* req) override
    {
        queue.insert(req);
    }

    void onHostedRemoved(workload::Request* req) override
    {
        queue.erase(req);
    }

    void onRequestExecuted(workload::Request* req,
                           bool quanta_changed) override
    {
        if (quanta_changed) {
            queue.markDirty(req);
            noteStateChanged();
        }
    }

  private:
    OrderedQueue<RrOrder> queue{1};
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_RR_SCHEDULER_HH
