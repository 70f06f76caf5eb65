/**
 * @file
 * OrderedQueue: the incrementally maintained priority queue behind the
 * iteration fast path.
 *
 * A scheduler queue spends thousands of consecutive decode iterations
 * with an unchanged membership and unchanged ordering keys, so sorting
 * it from scratch every iteration is almost always wasted work. The
 * queue is one sorted vector plus a pending vector:
 *
 *  - insert():    appends to pending (O(1)),
 *  - markDirty(): moves a member from the sorted vector to pending
 *    (linear find; the stale key is never consulted),
 *  - erase():     linear find in pending or the sorted vector,
 *  - repair():    sorts pending, appends it and std::inplace_merge()s
 *    it in — O(n + d log d) for d pending members, and a no-op in the
 *    steady state (nothing pending).
 *
 * The comparator must be a strict TOTAL order (the schedulers
 * tie-break by request id), so after repair() iteration yields exactly
 * the order std::sort produces over the live set, which is what the
 * force-resort invariance tests pin down.
 *
 * Contract: insert()/markDirty() defer to the next repair(), which
 * reads the request's ordering key at repair time — callers may mutate
 * keys freely between the notification and the repair, but a member
 * of the sorted vector must not change its key without a markDirty().
 * erase() takes effect immediately. Iterators are valid from one
 * repair() to the next mutation.
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

/** Sorted-vector request queue with dirty re-insert. @tparam Cmp
 *  strict total order over Request pointers (stateless functor). */
template <typename Cmp>
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

    /** Add a request (takes effect at the next repair()). */
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
        if (r->schedDirtyPending) {
            r->schedDirtyPending = false;
            pending.erase(find(pending, r));
        } else {
            sorted.erase(find(sorted, r));
        }
    }

    /** The request's ordering key changed: take it out of the sorted
     *  vector now and re-insert it at the next repair(). */
    void
    markDirty(workload::Request* r)
    {
        if (r->schedDirtyPending)
            return; // Already queued for re-insertion.
        sorted.erase(find(sorted, r));
        r->schedDirtyPending = true;
        pending.push_back(r);
    }

    /** Merge every pending request in at its current key's position. */
    void
    repair()
    {
        if (pending.empty())
            return;
        for (auto* r : pending)
            r->schedDirtyPending = false;
        std::sort(pending.begin(), pending.end(), Cmp{});
        auto mid = sorted.insert(sorted.end(), pending.begin(),
                                 pending.end());
        std::inplace_merge(sorted.begin(), mid, sorted.end(), Cmp{});
        pending.clear();
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
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_ORDERED_QUEUE_HH
