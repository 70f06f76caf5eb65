#include "src/core/pascal_scheduler.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace pascal
{
namespace core
{

PascalScheduler::PascalScheduler(SchedLimits limits, bool keyed)
    : IntraScheduler(limits, keyed)
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

OrderedQueue&
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
PascalScheduler::demote(workload::Request* req)
{
    req->demoted = true;
    req->resetQuantum();
    syncCounters(req);
    highQueue.erase(req);
    lowQueue.insert(req);
    setWake(req);
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
PascalScheduler::reuseVeto(const IterationPlan&)
{
    return processPendingDemotions();
}

void
PascalScheduler::onHostedAdded(workload::Request* req)
{
    if (isHighPriority(req)) {
        highQueue.insert(req);
        // A request arriving with a fat KV may demote at the very
        // next plan boundary.
        addDemotionCandidate(req);
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
    // Its KV grew, possibly into reach of the demotion rule.
    if (high)
        addDemotionCandidate(req);
}

TokenCount
PascalScheduler::nextWake(const workload::Request* req) const
{
    const TokenCount wake = IntraScheduler::nextWake(req);
    if (!isHighPriority(req))
        return wake;
    // The first token at which demotionPossible() holds; once it
    // does, every token, so the rule is re-checked at each boundary.
    const TokenCount window_entry = limits.demoteThresholdTokens -
                                    demotionWindow() -
                                    req->spec().promptTokens + 1;
    return std::min(wake, std::max(window_entry, req->generated() + 1));
}

void
PascalScheduler::onPredictionsMoved()
{
    for (auto* r : requests) {
        queueOf(r).markDirty(r);
        if (isHighPriority(r))
            addDemotionCandidate(r);
    }
}

bool
PascalScheduler::repairQueues()
{
    const bool high_moved = highQueue.repair(rekey());
    const bool low_moved = lowQueue.repair(rekey());
    return high_moved || low_moved;
}

void
PascalScheduler::rebuildQueues()
{
    highQueue.clear();
    lowQueue.clear();
    for (auto* r : requests) {
        if (isHighPriority(r) && shouldDemote(r)) {
            // The request now competes as a low-priority request; its
            // quantum restarts in the new queue.
            r->demoted = true;
            r->resetQuantum();
        }
        (isHighPriority(r) ? highQueue : lowQueue).insert(r);
    }
}

void
PascalScheduler::planInto(const model::KvPool& pool, IterationPlan& out)
{
    processPendingDemotions();
    repairQueues();

    // Optional answering reserve: cap how much KV the high queue may
    // claim so the low queue is never fully squeezed out.
    TokenCount high_cap = static_cast<TokenCount>(
        static_cast<double>(pool.gpuCapacity()) *
        (1.0 - limits.answeringReserveFraction));

    // High-priority (reasoning) requests first, each queue internally
    // round-robin ordered: the greedy walk gives reasoning requests
    // preferential KV allocation and evicts answering requests first
    // when memory runs short. The queues are walked in place.
    greedySelectRanges(highQueue.begin(), highQueue.end(),
                       lowQueue.begin(), lowQueue.end(),
                       limits.answeringReserveFraction > 0.0, high_cap,
                       pool, /*stop_at_unfit=*/false, out);
}

void
PascalScheduler::onPhaseTransition(workload::Request* req)
{
    req->resetQuantum();
    if (resortForced)
        return;
    syncCounters(req); // The quantum reset makes it "fresh" again.
    // noteExecuted already moved it into the low queue when the
    // transition token was emitted; the reset re-keys it there and
    // moves its next rollover.
    queueOf(req).markDirty(req);
    setWake(req);
    noteStateChanged();
}

} // namespace core
} // namespace pascal
