/**
 * @file
 * OrderedQueue: the maintained priority queue behind every scheduling
 * policy.
 *
 * A scheduler queue spends thousands of consecutive decode iterations
 * with an unchanged membership and only a few moved ordering keys, so
 * sorting it from scratch every iteration is almost always wasted
 * work. The queue is one sorted vector plus a pending list:
 *
 *  - insert():    appends to pending (O(1)),
 *  - markDirty(): flags a member and appends it to pending (O(1)); it
 *    keeps its slot in the sorted vector until the next repair(),
 *  - erase():     linear find in pending and the sorted vector,
 *  - repair():    re-keys every pending member once, keeps each dirty
 *    member in place while it still sorts between the last member kept
 *    and the next clean one, then sorts the displaced and new members
 *    and std::inplace_merge()s them in: O(n + d log d) for d of them,
 *    and a no-op in the steady state (nothing pending). It reports
 *    whether the order changed: a displaced member sorts on the other
 *    side of a neighbour it used to follow or precede, so "none
 *    displaced and none new" is exactly "every member kept its
 *    place".
 *
 * Every queue of every policy uses one order, QueueOrder, a strict
 * TOTAL order (it tie-breaks by request id), so after repair()
 * iteration yields exactly the order std::sort produces over the live
 * members, which the force-resort twin (a cold std::sort after clear()
 * and insert()) pins down.
 *
 * Contract: a member's ordering key may change only while it is
 * pending (inserted or marked dirty since the last repair()); repair()
 * reads keys, and re-keys pending members, at repair time. erase()
 * takes effect immediately. Iterators are valid from one repair() to
 * the next mutation.
 */

#ifndef PASCAL_CORE_ORDERED_QUEUE_HH
#define PASCAL_CORE_ORDERED_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/log.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace core
{

/**
 * The priority order of every policy's queues (true = @p a is served
 * first): SLO-class rank, then fewest quanta consumed, then the cached
 * predictor rank score (schedScore), then arrival, then id. A level a
 * policy does not use stays zero and is inert: the class rank with
 * classes off, the quanta under FCFS and SRPT (no token quantum), the
 * score under FCFS, RR and PASCAL (no predictions). So FCFS orders by
 * arrival, RR by (quanta, arrival), SRPT by (score, arrival), PASCAL by
 * (quanta, arrival) and PASCAL-Spec by (quanta, score, arrival).
 */
struct QueueOrder
{
    bool
    operator()(const workload::Request* a,
               const workload::Request* b) const
    {
        if (a->schedClassRank != b->schedClassRank)
            return a->schedClassRank < b->schedClassRank;
        if (a->quantaConsumed != b->quantaConsumed)
            return a->quantaConsumed < b->quantaConsumed;
        if (a->schedScore != b->schedScore)
            return a->schedScore < b->schedScore;
        if (a->spec().arrival != b->spec().arrival)
            return a->spec().arrival < b->spec().arrival;
        return a->id() < b->id();
    }
};

/** Sorted-vector request queue in QueueOrder with dirty repair. */
class OrderedQueue
{
  public:
    using iterator = std::vector<workload::Request*>::const_iterator;

    /** @param tag Nonzero queue id stamped into schedQueueTag so a
     *  request knows which queue holds it. */
    explicit OrderedQueue(std::uint8_t tag) : tag(tag)
    {
        if (tag == 0)
            panic("OrderedQueue tag must be nonzero");
    }

    /** Walk in key order (valid right after repair()). */
    iterator begin() const { return sorted.begin(); }
    iterator end() const { return sorted.end(); }

    /** Add a request (placed at the next repair()). */
    void
    insert(workload::Request* r)
    {
        r->schedQueueTag = tag;
        r->schedDirtyPending = true;
        pending.push_back(r);
    }

    /** Remove a request that currently belongs to this queue. */
    void
    erase(workload::Request* r)
    {
        r->schedQueueTag = 0;
        bool was_pending = r->schedDirtyPending;
        if (was_pending) {
            r->schedDirtyPending = false;
            pending.erase(find(pending, r));
        }
        // A dirty member still holds its sorted slot; a new one has
        // none yet.
        auto it = std::find(sorted.begin(), sorted.end(), r);
        if (it != sorted.end()) {
            sorted.erase(it);
            if (was_pending)
                --dirtySlots;
        } else if (!was_pending) {
            find(sorted, r); // Panics: not a member.
        }
    }

    /** The member's ordering key is about to change (or has): re-key
     *  and re-place it at the next repair(). */
    void
    markDirty(workload::Request* r)
    {
        if (r->schedDirtyPending)
            return; // Already pending.
        r->schedDirtyPending = true;
        pending.push_back(r);
        ++dirtySlots;
    }

    /** Force-resort twin: forget every member without touching one
     *  (some may already be gone), ready for a fresh insert() of all. */
    void
    clear()
    {
        sorted.clear();
        pending.clear();
        dirtySlots = 0;
    }

    /** Restore the order after @p rekey(r) re-read every pending
     *  member's key.
     *  @return true if any member moved or joined. */
    template <typename Rekey>
    bool
    repair(Rekey rekey)
    {
        if (pending.empty())
            return false;
        for (auto* r : pending)
            rekey(r);
        const QueueOrder order{};
        const std::size_t n = sorted.size();
        std::size_t kept = n;
        displaced.clear();
        if (dirtySlots > 0) {
            // Compacts the kept run to the front in place: writes land
            // at or behind the slot being read, never on the next
            // clean one.
            kept = 0;
            std::size_t next_clean = 0;
            for (std::size_t i = 0; i < n; ++i) {
                workload::Request* r = sorted[i];
                if (r->schedDirtyPending) {
                    r->schedDirtyPending = false;
                    if (next_clean <= i) {
                        next_clean = i + 1;
                        while (next_clean < n &&
                               sorted[next_clean]->schedDirtyPending)
                            ++next_clean;
                    }
                    if ((kept > 0 && !order(sorted[kept - 1], r)) ||
                        (next_clean < n &&
                         !order(r, sorted[next_clean]))) {
                        displaced.push_back(r);
                        continue;
                    }
                }
                sorted[kept++] = r;
            }
            sorted.resize(kept);
            dirtySlots = 0;
        }
        // Members still flagged had no sorted slot: new ones.
        for (auto* r : pending) {
            if (r->schedDirtyPending) {
                r->schedDirtyPending = false;
                displaced.push_back(r);
            }
        }
        pending.clear();
        if (displaced.empty())
            return false;
        std::sort(displaced.begin(), displaced.end(), order);
        auto mid = sorted.insert(sorted.end(), displaced.begin(),
                                 displaced.end());
        std::inplace_merge(sorted.begin(), mid, sorted.end(), order);
        return true;
    }

    /** repair() for keys that need no re-read. */
    bool
    repair()
    {
        return repair([](workload::Request*) {});
    }

  private:
    static std::vector<workload::Request*>::iterator
    find(std::vector<workload::Request*>& v, workload::Request* r)
    {
        auto it = std::find(v.begin(), v.end(), r);
        if (it == v.end())
            panic("OrderedQueue: request " + std::to_string(r->id()) +
                  " is not in this queue");
        return it;
    }

    std::uint8_t tag;
    std::vector<workload::Request*> sorted;
    std::vector<workload::Request*> pending;

    /** Pending members that still hold a sorted slot (marked dirty,
     *  not new): when 0, repair() only merges new members in. */
    std::size_t dirtySlots = 0;

    /** repair() scratch (capacity reused). */
    std::vector<workload::Request*> displaced;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_ORDERED_QUEUE_HH
