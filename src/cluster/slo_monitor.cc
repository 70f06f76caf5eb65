#include "src/cluster/slo_monitor.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace cluster
{

using workload::Phase;
using workload::Request;

SloMonitor::SloMonitor(const qoe::SloConfig& slo) : slo(slo)
{
    setClassConfig(qoe::SloClassConfig{});
}

void
SloMonitor::setClassConfig(const qoe::SloClassConfig& c)
{
    classCfg = c;
    for (std::size_t id = 1; id < kNumHeaps; ++id) {
        heaps[id].tpot = classCfg.enabled
                             ? classCfg.classes[id - 1].tpotTarget
                             : slo.tpotTarget;
    }
}

Time
SloMonitor::tpotOf(const Request* r) const
{
    // Per-class pacing target when classes are on; the global SLO
    // otherwise. Best-effort demotion relaxes to the Batch targets.
    if (classCfg.enabled)
        return classCfg.effective(r->spec().sloClass, r->bestEffort)
            .tpotTarget;
    return slo.tpotTarget;
}

Time
SloMonitor::ttfatOf(const Request* r) const
{
    if (classCfg.enabled)
        return classCfg.effective(r->spec().sloClass, r->bestEffort)
            .ttfatTarget;
    return slo.ttfatTarget;
}

double
SloMonitor::sloKeyOf(const Request* r) const
{
    if (r->firstAnswer >= 0.0) {
        // The verdict can only flip once the expected-token floor
        // reaches generated - margin; one tpot of slack absorbs any
        // rounding disagreement between this bound and the
        // floor-based check in sloViolated().
        double flip_tokens = static_cast<double>(
            r->answerGenerated() - slo.monitorBufferMarginTokens - 1);
        return r->firstAnswer + flip_tokens * tpotOf(r);
    }
    // Transitioned but no first answering token yet: the verdict
    // flips exactly when the TTFAT budget runs out; one tpot of
    // slack absorbs any rounding disagreement with the subtraction
    // in the exact check.
    return r->reasoningEnd + ttfatOf(r) - tpotOf(r);
}

bool
SloMonitor::sloViolated(const Request* r, Time now) const
{
    if (r->firstAnswer >= 0.0) {
        // The user digests one token per tpot from the first
        // answering token; the monitor flags the request once the
        // pacer buffer (generated minus digested) runs below the
        // early-warning margin.
        auto expected = static_cast<TokenCount>(
            std::floor((now - r->firstAnswer) / tpotOf(r))) + 1;
        expected = std::min(expected + slo.monitorBufferMarginTokens,
                            r->spec().answerTokens);
        return r->answerGenerated() < expected;
    }
    // Failing once the TTFAT budget is exhausted.
    return now - r->reasoningEnd > ttfatOf(r);
}

void
SloMonitor::Heap::siftUp(std::size_t i)
{
    Request* r = items[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (items[parent]->sloKey <= r->sloKey)
            break;
        items[i] = items[parent];
        items[i]->sloHeapPos = static_cast<std::int32_t>(i);
        i = parent;
    }
    items[i] = r;
    r->sloHeapPos = static_cast<std::int32_t>(i);
}

void
SloMonitor::Heap::siftDown(std::size_t i)
{
    Request* r = items[i];
    std::size_t n = items.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && items[child + 1]->sloKey < items[child]->sloKey)
            ++child;
        if (r->sloKey <= items[child]->sloKey)
            break;
        items[i] = items[child];
        items[i]->sloHeapPos = static_cast<std::int32_t>(i);
        i = child;
    }
    items[i] = r;
    r->sloHeapPos = static_cast<std::int32_t>(i);
}

void
SloMonitor::Heap::push(Request* r, std::int8_t id)
{
    r->sloHeapId = id;
    items.push_back(r);
    siftUp(items.size() - 1);
}

void
SloMonitor::Heap::erase(Request* r)
{
    std::int32_t pos = r->sloHeapPos;
    r->sloHeapPos = -1;
    r->sloHeapId = -1;
    Request* last = items.back();
    items.pop_back();
    if (last != r) {
        auto i = static_cast<std::size_t>(pos);
        items[i] = last;
        last->sloHeapPos = pos;
        siftUp(i);
        siftDown(static_cast<std::size_t>(last->sloHeapPos));
    }
}

void
SloMonitor::remove(Request* r)
{
    if (r->sloHeapPos >= 0)
        heaps[static_cast<std::size_t>(r->sloHeapId)].erase(r);
}

void
SloMonitor::place(Request* r, std::int8_t id, double key)
{
    Heap& h = heaps[static_cast<std::size_t>(id)];
    double stored = key - h.offset;
    if (r->sloHeapPos >= 0 && r->sloHeapId == id) {
        if (stored == r->sloKey)
            return;
        ++rekeys;
        bool up = stored < r->sloKey;
        r->sloKey = stored;
        auto i = static_cast<std::size_t>(r->sloHeapPos);
        if (up)
            h.siftUp(i);
        else
            h.siftDown(i);
        return;
    }
    remove(r);
    ++rekeys;
    r->sloKey = stored;
    h.push(r, id);
}

void
SloMonitor::park(Request* r)
{
    if (r->phase() != Phase::Answering) {
        remove(r);
        return;
    }
    place(r, kParked, sloKeyOf(r));
}

void
SloMonitor::join(Request* r, std::int8_t id)
{
    // Store the exact key net of the bump this step's endStep is
    // about to apply.
    place(r, id, sloKeyOf(r) - heaps[static_cast<std::size_t>(id)].tpot);
}

void
SloMonitor::endStep(std::uint64_t epoch)
{
    for (std::size_t id = 1; id < kNumHeaps; ++id) {
        Heap& h = heaps[id];
        if (h.emitted < h.items.size()) {
            // Some members sat this step out; their bounds did not
            // move, so park them at their exact keys. Every slot at
            // index >= i holds a member that emitted: erasing slot
            // i - 1 refills it with the (already checked) last member
            // or, when that member sifts up, with the slot's parent,
            // so the slot is examined again before moving on.
            std::size_t i = h.items.size();
            while (i > 0) {
                Request* r = h.items[i - 1];
                if (r->runEpoch == epoch) {
                    --i;
                    continue;
                }
                place(r, kParked, sloKeyOf(r));
                i = std::min(i, h.items.size());
            }
        }
        h.emitted = 0;
        if (h.items.empty()) {
            // Nothing is stored relative to the offset: restart it so
            // its rounding drift stays bounded by one membership.
            h.offset = 0.0;
            continue;
        }
        h.offset += h.tpot;
        ++rekeys;
    }
}

bool
SloMonitor::atRiskViolated(const Heap& h, std::size_t i, Time now) const
{
    if (i >= h.items.size() || h.items[i]->sloKey + h.offset > now)
        return false; // Heap order prunes the whole subtree.
    if (sloViolated(h.items[i], now))
        return true;
    return atRiskViolated(h, 2 * i + 1, now) ||
           atRiskViolated(h, 2 * i + 2, now);
}

bool
SloMonitor::answeringSloOk(Time now) const
{
    // The smallest heap top is the earliest time any answering
    // request's verdict could flip, so the common query is a few
    // comparisons. Only requests inside their conservative one-tpot
    // risk window are ever re-checked exactly (the per-request check
    // itself is exact — the keys only gate when it runs, and their
    // one-tpot slack dwarfs the offset encoding's rounding drift).
    Time top = kTimeInfinity;
    for (const Heap& h : heaps) {
        if (!h.items.empty())
            top = std::min(top, h.top());
    }
    if (now >= top) {
        for (const Heap& h : heaps) {
            if (atRiskViolated(h, 0, now))
                return false;
        }
    }
    return true;
}

bool
SloMonitor::answeringSloOkScan(const std::vector<Request*>& hosted,
                               Time now) const
{
    // Reference O(hosted) walk the heaps replaced; shares the exact
    // per-request check with them so the two can never drift. Audits
    // and tests call this to cross-check the maintained heaps.
    for (const auto* r : hosted) {
        if (r->phase() == Phase::Answering && sloViolated(r, now))
            return false;
    }
    return true;
}

void
SloMonitor::verify(const std::vector<Request*>& hosted, Time now,
                   InstanceId instance) const
{
    auto where = [&] { return " on instance " + std::to_string(instance); };
    std::size_t members = 0;
    for (const auto* r : hosted) {
        if (r->phase() != Phase::Answering) {
            if (r->sloHeapPos >= 0) {
                panic("SLO monitor holds non-answering request " +
                      std::to_string(r->id()) + where());
            }
            continue;
        }
        ++members;
        auto id = static_cast<std::size_t>(r->sloHeapId);
        auto pos = static_cast<std::size_t>(r->sloHeapPos);
        if (r->sloHeapPos < 0 || r->sloHeapId < 0 || id >= kNumHeaps ||
            pos >= heaps[id].items.size() || heaps[id].items[pos] != r) {
            panic("SLO monitor lost answering request " +
                  std::to_string(r->id()) + where());
        }
        if (id != static_cast<std::size_t>(kParked) &&
            (r->firstAnswer < 0.0 ||
             r->sloHeapId != pacingHeapOf(r))) {
            panic("SLO monitor paces request " + std::to_string(r->id()) +
                  " in the wrong heap" + where());
        }
        // Parked keys are written exactly and cannot move while the
        // request sits out. Pacing keys trade bit-exactness for O(1)
        // steady advances; their drift is bounded by summation
        // rounding, far inside the key's one-tpot conservatism.
        double drift = (r->sloKey + heaps[id].offset) - sloKeyOf(r);
        double bound = id == static_cast<std::size_t>(kParked)
                           ? 0.0
                           : 0.25 * tpotOf(r);
        if (drift > bound || drift < -bound) {
            panic("SLO monitor key stale for request " +
                  std::to_string(r->id()) + where() + " (drift " +
                  std::to_string(drift) + ")");
        }
    }
    std::size_t stored = 0;
    for (const Heap& h : heaps) {
        stored += h.items.size();
        for (std::size_t i = 1; i < h.items.size(); ++i) {
            if (h.items[(i - 1) / 2]->sloKey > h.items[i]->sloKey)
                panic("SLO monitor heap order violated" + where());
        }
    }
    if (members != stored) {
        panic("SLO monitor holds " + std::to_string(stored) +
              " requests != answering population " +
              std::to_string(members) + where());
    }
    if (answeringSloOk(now) != answeringSloOkScan(hosted, now)) {
        panic("SLO monitor verdict diverged from reference walk" +
              where() + " at t=" + std::to_string(now));
    }
}

} // namespace cluster
} // namespace pascal
