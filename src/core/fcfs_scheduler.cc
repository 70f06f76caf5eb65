#include "src/core/fcfs_scheduler.hh"

namespace pascal
{
namespace core
{

FcfsScheduler::FcfsScheduler(SchedLimits limits)
    : IntraScheduler(limits)
{
    // FCFS has no quantum; disable quantum accounting so the quanta
    // level of QueueOrder stays inert.
    this->limits.quantum = 0;
}

void
FcfsScheduler::planInto(const model::KvPool& pool, IterationPlan& out)
{
    // Strict arrival order across all states. Swapped requests are
    // older than waiting ones by construction, so one ordered walk
    // with stop-at-first-unfit semantics reproduces vLLM FCFS:
    // resume-before-admit, block new arrivals behind the first
    // request that does not fit, and evict from the back (the most
    // recently arrived) when the decode batch cannot grow.
    queue.repair(); // No-op except after add/remove.
    greedySelectRanges(queue.end(), queue.end(), queue.begin(),
                       queue.end(), /*cap_high=*/false, 0, pool,
                       /*stop_at_unfit=*/true, out);
}

} // namespace core
} // namespace pascal
