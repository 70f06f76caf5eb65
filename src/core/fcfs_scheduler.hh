/**
 * @file
 * First-Come-First-Served scheduler (vLLM's default policy,
 * Section II-C).
 *
 * Requests are served strictly in arrival order. When GPU memory is
 * exhausted, the most recently arrived running requests are preempted
 * (KV swapped to CPU), new admissions block until space frees, and
 * preempted requests resume before any newer request is admitted. The
 * resulting head-of-line blocking is the behaviour Figs. 2(b), 4 and 5
 * characterize.
 *
 * The (arrival, id) key is immutable, so in incremental mode the
 * queue's sorted vector only ever changes on add/remove — the
 * per-iteration sort of the recompute path disappears entirely.
 */

#ifndef PASCAL_CORE_FCFS_SCHEDULER_HH
#define PASCAL_CORE_FCFS_SCHEDULER_HH

#include <string>

#include "src/core/intra_scheduler.hh"
#include "src/core/ordered_queue.hh"

namespace pascal
{
namespace core
{

/** Strict arrival order (immutable key), after the SLO-class rank
 *  (all-zero with classes off, so the rank level is inert). */
struct FcfsOrder
{
    bool
    operator()(const workload::Request* a,
               const workload::Request* b) const
    {
        if (a->schedClassRank != b->schedClassRank)
            return a->schedClassRank < b->schedClassRank;
        if (a->spec().arrival != b->spec().arrival)
            return a->spec().arrival < b->spec().arrival;
        return a->id() < b->id();
    }
};

/** Strict arrival-order scheduling with preempt-latest eviction. */
class FcfsScheduler : public IntraScheduler
{
  public:
    explicit FcfsScheduler(SchedLimits limits);

    std::string name() const override { return "FCFS"; }

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

  private:
    OrderedQueue<FcfsOrder> queue{1};
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_FCFS_SCHEDULER_HH
