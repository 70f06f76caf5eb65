#include "src/core/srpt_scheduler.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace pascal
{
namespace core
{

namespace
{

/** Shortest cached rank score, arrival/id tie-broken, below the
 *  SLO-class rank (inert all-zero level with classes off). */
struct SrptOrder
{
    bool
    operator()(const workload::Request* a,
               const workload::Request* b) const
    {
        if (a->schedClassRank != b->schedClassRank)
            return a->schedClassRank < b->schedClassRank;
        if (a->schedScore != b->schedScore)
            return a->schedScore < b->schedScore;
        if (a->spec().arrival != b->spec().arrival)
            return a->spec().arrival < b->spec().arrival;
        return a->id() < b->id();
    }
};

} // namespace

SrptScheduler::SrptScheduler(SchedLimits limits)
    : IntraScheduler(limits)
{
    // Priorities are purely predicted; disable quantum accounting so
    // the RR key never moves (as FCFS does).
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
    orderScratch.clear();
    for (auto* r : requests) {
        if (schedulable(r)) {
            r->schedScore = queueKey(r);
            orderScratch.push_back(r);
        }
    }
    warmSort(orderScratch, orderMemo, SrptOrder{});
    greedySelectInto(orderScratch, pool, /*stop_at_unfit=*/false, out);
}

double
SrptScheduler::queueKey(const workload::Request* req) const
{
    return lengthPredictor->rankScore(*req);
}

bool
SrptScheduler::keysInOrder(const workload::Request* a,
                           const workload::Request* b) const
{
    return SrptOrder{}(a, b);
}

} // namespace core
} // namespace pascal
