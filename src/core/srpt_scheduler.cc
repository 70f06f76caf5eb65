#include "src/core/srpt_scheduler.hh"

#include "src/common/log.hh"

namespace pascal
{
namespace core
{

SrptScheduler::SrptScheduler(SchedLimits limits)
    : IntraScheduler(limits, /*keyed=*/true)
{
    // Priorities are purely predicted; disable quantum accounting so
    // the quanta level of QueueOrder stays inert (as FCFS does).
    this->limits.quantum = 0;
}

void
SrptScheduler::planInto(const model::KvPool& pool, IterationPlan& out)
{
    if (lengthPredictor == nullptr) {
        fatal("SrptScheduler: no length predictor wired; set "
              "SystemConfig::predictor (e.g. PredictorType::Oracle) "
              "or use FCFS/RR/PASCAL");
    }

    // Shortest predicted remaining work first; stable arrival/id
    // tie-breaks keep runs deterministic when predictions collide.
    // Skip semantics: a long request that does not fit must not block
    // the shorter ones behind it (that would re-create FCFS blocking).
    repairQueues();
    greedySelectRanges(queue.end(), queue.end(), queue.begin(),
                       queue.end(), /*cap_high=*/false, 0, pool,
                       /*stop_at_unfit=*/false, out);
}

double
SrptScheduler::queueKey(const workload::Request* req) const
{
    return lengthPredictor->rankScore(*req);
}

} // namespace core
} // namespace pascal
