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
 * Without a quantum the queue's QueueOrder reduces to (arrival, id),
 * an immutable key, so the sorted vector only ever changes on
 * add/remove: a plan sorts nothing else.
 */

#ifndef PASCAL_CORE_FCFS_SCHEDULER_HH
#define PASCAL_CORE_FCFS_SCHEDULER_HH

#include <string>

#include "src/core/intra_scheduler.hh"

namespace pascal
{
namespace core
{

/** Strict arrival-order scheduling with preempt-latest eviction. */
class FcfsScheduler : public IntraScheduler
{
  public:
    explicit FcfsScheduler(SchedLimits limits);

    std::string name() const override { return "FCFS"; }

  protected:
    void planInto(const model::KvPool& pool,
                  IterationPlan& out) override;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_FCFS_SCHEDULER_HH
