#include "src/core/rr_scheduler.hh"

#include "src/common/log.hh"

namespace pascal
{
namespace core
{

RrScheduler::RrScheduler(SchedLimits limits) : IntraScheduler(limits)
{
    if (this->limits.quantum <= 0)
        fatal("RrScheduler requires a positive token quantum");
}

void
RrScheduler::planInto(const model::KvPool& pool, IterationPlan& out)
{
    // Priority: fewest quanta consumed first (the classic RR key),
    // then arrival order. Candidates that do not fit are skipped
    // rather than blocking the walk: time-sharing interleaves around
    // memory obstacles instead of queueing behind them.
    queue.repair();
    greedySelectRanges(queue.end(), queue.end(), queue.begin(),
                       queue.end(), /*cap_high=*/false, 0, pool,
                       /*stop_at_unfit=*/false, out);
}

} // namespace core
} // namespace pascal
