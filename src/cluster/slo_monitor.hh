/**
 * @file
 * The paper's per-instance t_i monitor: is every answering request on
 * this instance keeping the user's expected pace?
 *
 * The verdict is exact (one per-request check, sloViolated), but the
 * monitor only runs that check for requests inside their risk window.
 * Each answering request carries a conservative flip-time key — the
 * earliest time its TPOT/TTFAT verdict could flip — in one of several
 * intrusive min-heaps, so the common query is a peek at the heap tops.
 *
 * The heaps split by how a key moves:
 *
 * - **Pacing heaps** hold the answering requests that emitted a token
 *   in the last step. Each such emission moves the flip bound by
 *   exactly one TPOT, so keys are stored relative to a per-heap offset
 *   and a step advances the whole heap with one offset bump. There is
 *   one pacing heap per effective TPOT target: one with SLO classes
 *   off, one per SloClass with them on (best-effort requests pace in
 *   Batch's heap).
 * - **One parked heap** holds every other answering request (swapped
 *   out, preempted, waiting for its first answering token), keyed by
 *   its absolute flip bound, which cannot move while it sits out.
 *
 * A step therefore costs O(batch churn · log n): only requests that
 * leave or join the decode batch are re-keyed, however many sit out.
 */

#ifndef PASCAL_CLUSTER_SLO_MONITOR_HH
#define PASCAL_CLUSTER_SLO_MONITOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.hh"
#include "src/qoe/slo.hh"
#include "src/workload/request.hh"
#include "src/workload/slo_class.hh"

namespace pascal
{
namespace cluster
{

/** Answering-phase SLO monitor of one instance. */
class SloMonitor
{
  public:
    explicit SloMonitor(const qoe::SloConfig& slo);

    /** Per-class targets (copied; call before any request is
     *  reported). The default disabled config collapses every
     *  per-request target to the global SloConfig. */
    void setClassConfig(const qoe::SloClassConfig& c);

    /**
     * @name Reports from the hosting instance
     *
     * Every event that can move a hosted request's membership or key
     * must be reported, so the keys stay exact.
     */
    /** @{ */

    /**
     * Membership and key fixup after any event outside the decode
     * emission path: admission, migration landing, prefill, best-
     * effort demotion. An answering request lands in the parked heap
     * with its exact key; anything else leaves the monitor.
     */
    void park(workload::Request* r);

    /** The request leaves the instance (detach or finish). */
    void remove(workload::Request* r);

    /**
     * A decode-batch member just emitted one token (call after
     * Request::emitToken). A request that keeps pacing in the same
     * heap costs nothing; one that joins the batch moves to its
     * pacing heap. Inline: runs once per batch member per step.
     */
    void
    onEmit(workload::Request* r)
    {
        if (r->firstAnswer >= 0.0 && !r->finished()) {
            std::int8_t id = pacingHeapOf(r);
            ++heaps[static_cast<std::size_t>(id)].emitted;
            // A member that kept pacing needs nothing: its bound moved
            // by exactly one tpot, which endStep's offset bump applies.
            if (r->sloHeapPos < 0 || r->sloHeapId != id)
                join(r, id);
        } else if (r->sloHeapPos >= 0 ||
                   r->phase() == workload::Phase::Answering) {
            // Finished (leaves), or just crossed </think> and now
            // counts down its TTFAT budget, which no further emission
            // moves. Reasoning tokens fall through untouched.
            park(r);
        }
    }

    /**
     * End of a step whose batch members carry Request::runEpoch ==
     * @p epoch: pacing members that did not emit move to the parked
     * heap with their exact key, then every live pacing heap bumps its
     * offset by one TPOT.
     */
    void endStep(std::uint64_t epoch);

    /** @} */

    /**
     * Paper t_i: no answering request is starving its token pacer at
     * @p now. A peek at the heap tops unless some request is inside
     * its risk window; only those get the exact per-request check.
     */
    bool answeringSloOk(Time now) const;

    /** Reference O(hosted) walk of answeringSloOk over @p hosted (kept
     *  for audits and tests; shares sloViolated). */
    bool answeringSloOkScan(const std::vector<workload::Request*>& hosted,
                            Time now) const;

    /**
     * Audit: recompute every hosted request's membership and key from
     * scratch and panic on any divergence from the maintained heaps,
     * then cross-check the answeringSloOk verdict against the
     * reference walk at @p now. @p instance names the owner in
     * the panic message.
     */
    void verify(const std::vector<workload::Request*>& hosted, Time now,
                InstanceId instance) const;

    /** Stored-key writes plus offset bumps. */
    std::uint64_t numRekeys() const { return rekeys; }

    /** Conservative absolute flip-time key of an answering request
     *  (exact formula shared with the reference walk). */
    double sloKeyOf(const workload::Request* r) const;

  private:
    /** Effective per-request TPOT target: the class's (Batch's for
     *  best-effort) when classes are on, the global otherwise. */
    Time tpotOf(const workload::Request* r) const;

    /** Effective per-request TTFAT target (same selection rule). */
    Time ttfatOf(const workload::Request* r) const;

    /** Exact verdict for one request at @p now (shared with the
     *  reference walk). */
    bool sloViolated(const workload::Request* r, Time now) const;

    /** Intrusive binary min-heap; a member's real key is its stored
     *  Request::sloKey plus the heap's offset (always 0 for the
     *  parked heap). */
    struct Heap
    {
        std::vector<workload::Request*> items;
        double offset = 0.0;
        Time tpot = 0.0;          //!< Offset bump per step (pacing).
        std::size_t emitted = 0;  //!< Pacing members that emitted.

        double
        top() const
        {
            return items.front()->sloKey + offset;
        }
        void push(workload::Request* r, std::int8_t id);
        void erase(workload::Request* r);
        void siftUp(std::size_t i);
        void siftDown(std::size_t i);
    };

    static constexpr std::int8_t kParked = 0;
    static constexpr std::size_t kNumHeaps = 1 + workload::kNumSloClasses;

    /** Pacing heap an emitting request belongs in: the tpotOf rule,
     *  so every member of a pacing heap advances by exactly that
     *  heap's tpot per emitted token. */
    std::int8_t
    pacingHeapOf(const workload::Request* r) const
    {
        if (!classCfg.enabled)
            return 1;
        workload::SloClass c = r->bestEffort ? workload::SloClass::Batch
                                             : r->spec().sloClass;
        return static_cast<std::int8_t>(1 + workload::sloClassIndex(c));
    }

    /** Move an emitting request into pacing heap @p id (onEmit's
     *  batch-join path). */
    void join(workload::Request* r, std::int8_t id);

    /** Store @p key (real) for @p r in heap @p id, moving it there
     *  from wherever it is. */
    void place(workload::Request* r, std::int8_t id, double key);

    /** DFS over heap @p h's {key <= now} rooted subtree, exactly
     *  re-checking each at-risk request. */
    bool atRiskViolated(const Heap& h, std::size_t i, Time now) const;

    qoe::SloConfig slo;
    qoe::SloClassConfig classCfg;
    std::array<Heap, kNumHeaps> heaps;
    std::uint64_t rekeys = 0;
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_SLO_MONITOR_HH
