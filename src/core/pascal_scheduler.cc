#include "src/core/pascal_scheduler.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace pascal
{
namespace core
{

PascalScheduler::PascalScheduler(SchedLimits limits)
    : IntraScheduler(limits)
{
    if (this->limits.quantum <= 0)
        fatal("PascalScheduler requires a positive token quantum");
}

bool
PascalScheduler::isHighPriority(const workload::Request* req)
{
    return req->phase() == workload::Phase::Reasoning && !req->demoted;
}

bool
PascalScheduler::shouldDemote(const workload::Request* req) const
{
    return req->kvTokens() > limits.demoteThresholdTokens;
}

OrderedQueue<PascalQueueOrder>&
PascalScheduler::queueOf(const workload::Request* r)
{
    switch (r->schedQueueTag) {
      case 1:
        return highQueue;
      case 2:
        return lowQueue;
      default:
        panic("PascalScheduler: request " + std::to_string(r->id()) +
              " not in any queue");
    }
}

void
PascalScheduler::applyDemotion()
{
    for (auto* r : requests) {
        if (!r->demoted && r->phase() == workload::Phase::Reasoning &&
            shouldDemote(r)) {
            // The request now competes as a low-priority request; its
            // quantum restarts in the new queue.
            r->demoted = true;
            r->resetQuantum();
        }
    }
}

void
PascalScheduler::demote(workload::Request* req)
{
    req->demoted = true;
    req->resetQuantum();
    req->schedCachedQuanta = req->quantaConsumed;
    syncCounters(req);
    highQueue.erase(req);
    lowQueue.insert(req);
    noteStateChanged();
}

bool
PascalScheduler::processPendingDemotions()
{
    bool any = false;
    for (auto* r : demotionCandidates) {
        if (!isHosted(r)) {
            // Migrated away since being flagged; the pending flag (if
            // set) now belongs to its new host's candidate list.
            continue;
        }
        if (!r->schedDemotionPending)
            continue; // Superseded (removed+readded, or a duplicate).
        r->schedDemotionPending = false;
        if (r->schedQueueTag == 1 && !r->demoted &&
            r->phase() == workload::Phase::Reasoning &&
            shouldDemote(r)) {
            demote(r);
            any = true;
        }
    }
    demotionCandidates.clear();
    return any;
}

bool
PascalScheduler::reuseVeto(const IterationPlan& prev)
{
    if (incrementalEnabled())
        return processPendingDemotions();
    // Keyed reuse: only the batch members' demotion inputs (KV, and
    // the prediction) moved since the build applied the rule.
    for (const auto* r : prev.decode) {
        if (isHighPriority(r) && shouldDemote(r))
            return true;
    }
    return false;
}

bool
PascalScheduler::keysInOrder(const workload::Request* a,
                             const workload::Request* b) const
{
    return isHighPriority(a) != isHighPriority(b) ||
           PascalQueueOrder{}(a, b);
}

void
PascalScheduler::onHostedAdded(workload::Request* req)
{
    if (isHighPriority(req)) {
        highQueue.insert(req);
        // A request arriving with a fat KV may demote at the very
        // next plan boundary, just as recompute mode's full
        // applyDemotion scan would find it.
        if (demotionPossible(req)) {
            req->schedDemotionPending = true;
            demotionCandidates.push_back(req);
        }
    } else {
        lowQueue.insert(req);
    }
}

void
PascalScheduler::onHostedRemoved(workload::Request* req)
{
    queueOf(req).erase(req);
}

void
PascalScheduler::onRequestExecuted(workload::Request* req,
                                   bool quanta_changed)
{
    bool high = isHighPriority(req);
    if (req->schedQueueTag == 1 && !high) {
        // The </think> token (or a completion) just moved the request
        // out of the high queue.
        highQueue.erase(req);
        lowQueue.insert(req);
        noteStateChanged();
    } else if (quanta_changed) {
        queueOf(req).markDirty(req);
        noteStateChanged();
    }
    if (high && !req->schedDemotionPending && demotionPossible(req)) {
        // Its KV grew into reach of the demotion rule; re-check at
        // the next plan boundary.
        req->schedDemotionPending = true;
        demotionCandidates.push_back(req);
    }
}

void
PascalScheduler::sortQueue(std::vector<workload::Request*>& queue,
                           SortMemo& memo)
{
    if (keysUsePredictions()) {
        // Precompute keys so predictor-backed variants pay one
        // prediction per request, not one per comparison.
        for (auto* r : queue)
            r->schedScore = queueKey(r);
    }
    warmSort(queue, memo, PascalQueueOrder{});
}

void
PascalScheduler::planInto(const model::KvPool& pool, IterationPlan& out)
{
    if (incrementalEnabled())
        incrementalPlan(pool, out);
    else
        recomputePlan(pool, out);
}

void
PascalScheduler::recomputePlan(const model::KvPool& pool,
                               IterationPlan& out)
{
    applyDemotion();

    // High-priority (reasoning) requests first, each queue internally
    // round-robin ordered. The greedy walk then gives reasoning
    // requests preferential KV allocation and evicts answering
    // requests first when memory runs short.
    highScratch.clear();
    lowScratch.clear();
    for (auto* r : requests) {
        if (!schedulable(r))
            continue;
        (isHighPriority(r) ? highScratch : lowScratch).push_back(r);
    }

    sortQueue(highScratch, highMemo);
    sortQueue(lowScratch, lowMemo);

    orderScratch.clear();
    orderScratch.insert(orderScratch.end(), highScratch.begin(),
                        highScratch.end());
    orderScratch.insert(orderScratch.end(), lowScratch.begin(),
                        lowScratch.end());

    // Optional answering reserve: cap how much KV the high queue may
    // claim so the low queue is never fully squeezed out.
    TokenCount high_cap = static_cast<TokenCount>(
        static_cast<double>(pool.gpuCapacity()) *
        (1.0 - limits.answeringReserveFraction));
    std::size_t prefix = limits.answeringReserveFraction > 0.0
                             ? highScratch.size()
                             : 0;

    greedySelectInto(orderScratch, pool, /*stop_at_unfit=*/false, out,
                     prefix, high_cap);
}

void
PascalScheduler::incrementalPlan(const model::KvPool& pool,
                                 IterationPlan& out)
{
    processPendingDemotions();
    highQueue.repair();
    lowQueue.repair();

    TokenCount high_cap = static_cast<TokenCount>(
        static_cast<double>(pool.gpuCapacity()) *
        (1.0 - limits.answeringReserveFraction));

    // The queues are walked in place — no scratch concatenation pass;
    // the high (reasoning) queue outranks the low queue exactly as the
    // recompute sort's concatenated order does.
    greedySelectRanges(highQueue.begin(), highQueue.end(),
                       lowQueue.begin(), lowQueue.end(),
                       limits.answeringReserveFraction > 0.0, high_cap,
                       pool, /*stop_at_unfit=*/false, out);
}

void
PascalScheduler::onPhaseTransition(workload::Request* req)
{
    req->resetQuantum();
    if (!incrementalEnabled())
        return;
    req->schedCachedQuanta = req->quantaConsumed;
    syncCounters(req); // The quantum reset makes it "fresh" again.
    // noteExecuted already moved it into the low queue when the
    // transition token was emitted; the reset re-keys it there.
    queueOf(req).markDirty(req);
    noteStateChanged();
}

} // namespace core
} // namespace pascal
