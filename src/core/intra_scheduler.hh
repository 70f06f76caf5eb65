/**
 * @file
 * Base class for intra-instance schedulers (Section II-C / IV-C).
 *
 * A scheduler owns the set of requests hosted on its instance and, at
 * every iteration boundary, produces an IterationPlan deciding which
 * requests prefill, decode, swap in, or are evicted, subject to the
 * GPU KV capacity.
 *
 * Incremental mode and the dirty-set contract
 * -------------------------------------------
 * The per-iteration scheduling path is the simulator's hottest loop,
 * so the base class supports two modes:
 *
 *  - Recompute mode (default; also PASCAL_FORCE_RESORT /
 *    SchedLimits::forceResort): every buildPlan() call rebuilds and
 *    re-sorts the priority order from scratch. Simple, and the
 *    reference behaviour the invariance tests compare against.
 *    Predictor-keyed schedulers (keysUsePredictions(): SRPT and
 *    PASCAL-Spec) always build here. A predicted remaining length moves
 *    with every generated token, so maintained queues would relink
 *    every executed member every iteration; an online learner
 *    (profile, rank) also re-keys every hosted request when its served
 *    predictions change. Their sorts are warm-started (warmSort()):
 *    members keep their last order while it holds, so a plan costs
 *    one prediction per schedulable request plus a sort of the
 *    members that moved. The force-resort mode sorts from scratch.
 *    They still reuse plans: between predictor version bumps a
 *    running member's key never increases and an idle request's key
 *    never moves, so reusePlan() re-keys only the last plan's decode
 *    members and proves the walk would pick them again (README,
 *    "Predictor-keyed policies reuse plans between predictor
 *    changes").
 *
 *  - Incremental mode (enabled by the owning Instance via
 *    enableIncremental()): the scheduler maintains its priority
 *    queues, the r_i / a_i monitor counters, and demotion candidates
 *    across iterations, repairing only requests whose ordering key
 *    actually changed. Each queue is an OrderedQueue: one sorted
 *    vector into which the changed members are merged back at the
 *    next build. In the dominant decode-only steady state
 *    reusePlan() lets the instance run the previous IterationPlan
 *    verbatim, skipping plan construction entirely; every other
 *    boundary is a full buildPlan() walk.
 *
 * Incremental mode relies on the *dirty-set contract*: every mutation
 * of a hosted request's scheduler-visible state must reach the
 * scheduler through one of the notification points —
 *
 *  - add() / remove()          membership (arrival, migration, finish),
 *  - noteExecuted()            after each emitToken()/completePrefill()
 *                              (token progress, quantum rollover, phase
 *                              flip, KV growth),
 *  - onPhaseTransition()       reasoning->answering staying home.
 *
 * No ordering key reads the exec state, so residency flips (swaps,
 * prefill allocation; noteResidency()) only block verbatim plan reuse.
 * Incremental keys never read the predictor, so predictor updates need
 * no notification (keyed plan reuse compares LengthPredictor::version()
 * instead). Code that mutates requests behind the scheduler's
 * back (unit tests poking exec states directly) must simply leave
 * incremental mode off.
 * Subclasses hook the notifications via onHostedAdded/onHostedRemoved/
 * onRequestExecuted and must keep their queues equal to what their
 * recompute path would build — the randomized force-resort invariance
 * tests enforce byte-identical RunResults across the two modes.
 */

#ifndef PASCAL_CORE_INTRA_SCHEDULER_HH
#define PASCAL_CORE_INTRA_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/log.hh"
#include "src/common/types.hh"
#include "src/core/iteration_plan.hh"
#include "src/core/ordered_queue.hh"
#include "src/model/kv_pool.hh"
#include "src/predict/predictor.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace core
{

/**
 * Why reusePlan() declined, recorded per boundary for the telemetry
 * layer: it annotates the full-walk trace event. Purely observational
 * — never consulted by scheduling decisions.
 */
enum class PlanDecline : std::uint8_t
{
    None = 0,     //!< The plan was reused (or reuse never consulted).
    Inactive,     //!< Fast path off (never enabled, or the force twin).
    StateChanged, //!< Membership/residency/key/queue change, or a
                  //!< predictor version bump, since the last build.
    Veto,         //!< Policy veto (PASCAL's demotion rule fired).
    Budget,       //!< Paged-memory revalidation failed.
};

/** Stable lowercase name of @p d (trace "reason" arg rendering). */
const char* planDeclineName(PlanDecline d);

/** The full name table, index == enum value (TraceSink reason
 *  table). */
const char* const* planDeclineNames();

/** Number of entries in planDeclineNames(). */
std::size_t numPlanDeclineNames();

/** Interface + shared mechanics of intra-instance scheduling. */
class IntraScheduler
{
  public:
    explicit IntraScheduler(SchedLimits limits);
    virtual ~IntraScheduler() = default;

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /** A request was routed to this instance (arrival or migration). */
    void add(workload::Request* req);

    /** A request left this instance (finished or migrated away).
     *  O(1) via the request's intrusive hosted-position index. */
    void remove(workload::Request* req);

    /** Requests currently hosted. Removal swaps the last request into
     *  the vacated slot, so the order is arbitrary (every consumer is
     *  order-independent or establishes its own order; for insertion
     *  order use hostedHead()/schedNextHosted). */
    const std::vector<workload::Request*>& hosted() const
    {
        return requests;
    }

    /** Head of the intrusive insertion-ordered hosted list (walk via
     *  schedNextHosted). Consumers whose result depends on iteration
     *  order — the snapshot's floating-point prediction sum — use
     *  this so O(1) swap-pop removal cannot perturb their output. */
    workload::Request* hostedHead() const { return hostedFirst; }

    /**
     * Build the next iteration's plan into @p out. @p out is reset
     * first with its capacity retained, so steady-state replans do
     * not allocate.
     */
    void buildPlan(const model::KvPool& pool, IterationPlan& out);

    /** Convenience wrapper building a fresh plan. */
    IterationPlan
    plan(const model::KvPool& pool)
    {
        IterationPlan out;
        buildPlan(pool, out);
        return out;
    }

    /**
     * Steady-state fast path: true if @p prev (the plan built by the
     * last buildPlan() and since executed once) is still *exactly*
     * what buildPlan() would produce, in which case the instance runs
     * it again verbatim. Holds when (a) the fast path is on
     * (enableIncremental()), (b) the previous plan was pure decode (no
     * prefill / prewarm / swaps), (c) no membership, residency, key,
     * or demotion change was observed since, and (d) re-walking the
     * recorded selection against the pool shows every decode member
     * still fits and every kept resident still holds its memory. (d)
     * is O(batch) integer arithmetic — no sorting, no allocation.
     *
     * Predictor-keyed schedulers build in recompute mode, so for them
     * (c) is checked here, in O(batch): the predictor version is
     * unchanged, every decode member keeps its build-time phase,
     * quanta, class rank and GPU residency, its re-read key
     * (queueKey()) is at most its build-time key, and members of one
     * queue are still in the policy's order (keysInOrder()). Idle
     * requests' keys are frozen and the budget ahead of them only
     * shrinks, so none can overtake a member. When it returns false
     * the caller walks: buildPlan().
     */
    bool reusePlan(const IterationPlan& prev, const model::KvPool& pool);

    /** Notification that @p req crossed the reasoning->answering
     *  boundary and stays on this instance. */
    virtual void onPhaseTransition(workload::Request* req);

    /**
     * The engine reports every exec-state flip of a hosted request
     * (prefill/prewarm allocation, swap out/in) here. A residency
     * change only blocks verbatim plan reuse until the next build: no
     * ordering key reads the exec state.
     */
    void noteResidency(workload::Request*) { stateChanged = true; }

    /**
     * Instance notification: @p req just emitted a token (or finished
     * prefill) in the iteration being completed. Updates the
     * maintained counters and forwards key changes to the subclass.
     * No-op in recompute mode.
     */
    void noteExecuted(workload::Request* req);

    /** Paper r_i: reasoning requests in the high-priority queue
     *  (excludes demoted ones). O(1) in incremental mode. */
    int numReasoning() const;

    /** Paper a_i: answering requests that have not exhausted their
     *  first time quantum. O(1) in incremental mode. */
    int numFreshAnswering() const;

    const SchedLimits& schedLimits() const { return limits; }

    /**
     * Switch on the fast path: incremental maintenance plus plan
     * reuse. Must be called before any request is added. A
     * keysUsePredictions() scheduler keeps building in recompute mode
     * and gets plan reuse only (see the file comment). Ignored when
     * SchedLimits::forceResort is set or the PASCAL_FORCE_RESORT
     * environment variable was set at construction.
     */
    void enableIncremental();

    bool incrementalEnabled() const { return incremental; }

    /** Instance id for diagnostics (placement-bug panics). */
    void setInstanceId(InstanceId id) { instanceId = id; }

    /**
     * Wire a length predictor (not owned; may be nullptr). Speculative
     * policies (SRPT, PASCAL-Spec) consult it when ordering requests
     * and deciding demotion; phase-reactive policies ignore it. The
     * Cluster shares one predictor across all of its instances.
     */
    void setPredictor(const predict::LengthPredictor* p)
    {
        lengthPredictor = p;
    }

    const predict::LengthPredictor* predictor() const
    {
        return lengthPredictor;
    }

    /** True if ordering keys come from the predictor; such a
     *  scheduler never enters incremental mode, and its plans are
     *  reused only while the predictor version holds. */
    virtual bool keysUsePredictions() const { return false; }

    /**
     * Residents the last buildPlan() left resident without running
     * them this iteration: the greedy walk's kept-but-unselected
     * requests plus, on prefill-priority iterations, the selected
     * decode candidates the prefill pass displaced. The instance
     * restamps their lazy-accrual bucket from this record, so a fresh
     * plan touches only requests whose standing bucket can actually
     * have changed. Valid until the next buildPlan().
     */
    const std::vector<workload::Request*>& keptResidents() const
    {
        return lastKeptResidents;
    }

    /** Why the last reusePlan() call declined (None if it reused). */
    PlanDecline lastReuseDecline() const { return reuseDecline; }

  protected:
    /** A position in a priority order: an OrderedQueue's or a plain
     *  order vector's. */
    using OrderIt = std::vector<workload::Request*>::const_iterator;

    /** True if @p req can be considered for scheduling at all.
     *  Inline: evaluated once per walked candidate per plan. */
    static bool
    schedulable(const workload::Request* req)
    {
        if (req->finished())
            return false;
        switch (req->exec) {
          case workload::ExecState::WaitingNew:
          case workload::ExecState::ResidentGpu:
          case workload::ExecState::SwappedCpu:
            return true;
          default:
            return false;
        }
    }

    /** Policy hook: produce the plan. @p out arrives reset. */
    virtual void planInto(const model::KvPool& pool,
                          IterationPlan& out) = 0;

    /** @name Incremental-mode subclass hooks */
    /** @{ */

    /** @p req joined the hosted set (insert it into your queues and
     *  seed its cached ordering key). */
    virtual void onHostedAdded(workload::Request* req) { (void)req; }

    /** @p req left the hosted set (erase it from your queues). */
    virtual void onHostedRemoved(workload::Request* req) { (void)req; }

    /**
     * @p req ran in the just-completed iteration: its generated-token
     * count (hence KV) advanced, and possibly its quantum or phase.
     * Mark it dirty in your queues if its ordering key changed.
     */
    virtual void onRequestExecuted(workload::Request* req,
                                   bool quanta_changed)
    {
        (void)req;
        (void)quanta_changed;
    }

    /**
     * Last gate before verbatim plan reuse of @p prev; runs any
     * deferred decisions that recompute mode would take at plan time
     * (PASCAL's demotion rule). Return true to veto the reuse. May
     * mutate scheduler state (an applied demotion both vetoes and
     * updates the queues).
     */
    virtual bool
    reuseVeto(const IterationPlan& prev)
    {
        (void)prev;
        return false;
    }

    /**
     * Predictor-derived ordering key cached into schedScore
     * (ascending = served first). Only called when
     * keysUsePredictions(): by the policy's plan build, and by
     * reusePlan() to re-key the last plan's decode members.
     */
    virtual double
    queueKey(const workload::Request* req) const
    {
        (void)req;
        return 0.0;
    }

    /**
     * Keyed plan reuse: true if @p a (ahead of @p b in the last plan's
     * decode list) still precedes @p b in the policy's order under
     * their current schedScore keys, or if they sit in different
     * queues. The default proves nothing, so a keyed policy that does
     * not override it never reuses a plan.
     */
    virtual bool
    keysInOrder(const workload::Request* a,
                const workload::Request* b) const
    {
        (void)a;
        (void)b;
        return false;
    }

    /** Subclasses call this whenever queue contents or keys changed
     *  outside buildPlan (blocks verbatim reuse until the next
     *  buildPlan). */
    void noteStateChanged() { stateChanged = true; }

    /** Recompute @p req's contribution to the maintained monitor
     *  counters from its live state. */
    void syncCounters(workload::Request* req);

    /** True if @p req is currently hosted by *this* scheduler (the
     *  intrusive fields alone cannot tell schedulers apart). */
    bool
    isHosted(const workload::Request* req) const
    {
        return req->schedHostedPos < requests.size() &&
               requests[req->schedHostedPos] == req;
    }

    /** @} */

    /**
     * Shared greedy selection over two priority ranges (the capped
     * high-priority segment, then the uncapped rest): walk by
     * priority, charging each candidate's full memory footprint (KV +
     * one token of decode growth, or prompt + first token for
     * prefills, block-rounded per the pool's paged allocator) against
     * the GPU capacity. Unselected residents are kept resident while
     * the leftover budget allows and evicted (swapOut) otherwise,
     * which preempts the lowest-priority requests first.
     *
     * Policies with skip semantics (RR, PASCAL) pass
     * stop_at_unfit = false; strict-order policies stop the walk at
     * the first candidate that does not fit.
     *
     * Early exit: once nothing further can be admitted (the walk
     * stopped or the batch is full) the only remaining work is
     * accounting GPU residents for the keep/evict pass, so the walk
     * ends as soon as every request holding KV (GPU-resident or
     * swapped) has been seen.
     *
     * The ranges are vector iterators, so the OrderedQueues are
     * consumed in place — no O(n) copy into a scratch order per plan.
     *
     * The walk also records the reuse-validation state (per-decode-
     * member budget caps, keyed reuse's key fields, and the kept
     * residents) that reusePlan() re-checks each steady-state
     * iteration.
     *
     * @param cap_high Charge the high range against
     *        @p high_budget_cap as well as the global budget
     *        (PASCAL's answering-reserve extension).
     */
    void greedySelectRanges(OrderIt high_begin, OrderIt high_end,
                            OrderIt low_begin, OrderIt low_end,
                            bool cap_high, TokenCount high_budget_cap,
                            const model::KvPool& pool, bool stop_at_unfit,
                            IterationPlan& out);

    /** Single-order convenience over greedySelectRanges: the first
     *  @p high_prefix_len entries of @p order form the capped high
     *  segment (0 disables the cap). */
    void greedySelectInto(const std::vector<workload::Request*>& order,
                          const model::KvPool& pool, bool stop_at_unfit,
                          IterationPlan& out,
                          std::size_t high_prefix_len = 0,
                          TokenCount high_budget_cap = 0);

    /** Where one queue's members sat after its last warmSort(). */
    struct SortMemo
    {
        std::uint64_t stamp = 0; //!< 0 = never sorted.
        std::size_t size = 0;
    };

    /**
     * std::sort of @p items by @p order, warm-started from the last
     * sort of the same queue (@p memo). @p order must be a strict total
     * order over (schedClassRank, quantaConsumed, schedScore) and the
     * immutable arrival and id. Members keep their last relative order
     * while it still holds: one whose three mutable fields are
     * unchanged since that sort (an anchor) always does, and a
     * re-keyed one does while it still sorts between the last member
     * kept and the next anchor. Only new and displaced members are
     * sorted and then merged in: O(n + k log k) for k of them, and the
     * same result as std::sort because the order is total. The
     * force-resort debug mode sorts from scratch instead.
     */
    template <typename Order>
    void
    warmSort(std::vector<workload::Request*>& items, SortMemo& memo,
             Order order)
    {
        if (resortForced) {
            std::sort(items.begin(), items.end(), order);
            return;
        }
        sortSlots.assign(memo.size, nullptr);
        sortChanged.clear();
        for (auto* r : items) {
            if (memo.stamp != 0 && r->sortStamp == memo.stamp)
                sortSlots[r->sortRank] = r;
            else
                sortChanged.push_back(r);
        }
        auto anchor = [](const workload::Request* r) {
            return r != nullptr && r->sortClassRank == r->schedClassRank &&
                   r->sortQuanta == r->quantaConsumed &&
                   r->sortScore == r->schedScore;
        };
        // Compacts the kept run to the front in place: writes land at
        // or behind the slot being read, never on the next anchor.
        const std::size_t slots = sortSlots.size();
        std::size_t kept = 0;
        std::size_t next_anchor = 0;
        for (std::size_t i = 0; i < slots; ++i) {
            workload::Request* r = sortSlots[i];
            if (r == nullptr)
                continue;
            if (!anchor(r)) {
                if (next_anchor <= i) {
                    next_anchor = i + 1;
                    while (next_anchor < slots &&
                           !anchor(sortSlots[next_anchor]))
                        ++next_anchor;
                }
                if ((kept > 0 && !order(sortSlots[kept - 1], r)) ||
                    (next_anchor < slots &&
                     !order(r, sortSlots[next_anchor]))) {
                    sortChanged.push_back(r);
                    continue;
                }
            }
            sortSlots[kept++] = r;
        }
        std::sort(sortChanged.begin(), sortChanged.end(), order);
        std::merge(sortSlots.begin(),
                   sortSlots.begin() + static_cast<std::ptrdiff_t>(kept),
                   sortChanged.begin(), sortChanged.end(), items.begin(),
                   order);
        memo.stamp = nextSortStamp();
        memo.size = items.size();
        for (std::size_t i = 0; i < items.size(); ++i) {
            workload::Request* r = items[i];
            r->sortStamp = memo.stamp;
            r->sortRank = static_cast<std::uint32_t>(i);
            r->sortClassRank = r->schedClassRank;
            r->sortQuanta = r->quantaConsumed;
            r->sortScore = r->schedScore;
        }
    }

    /** Legacy convenience (unit probes): greedySelectInto on a fresh
     *  plan. */
    IterationPlan
    greedySelect(const std::vector<workload::Request*>& order,
                 const model::KvPool& pool, bool stop_at_unfit,
                 std::size_t high_prefix_len = 0,
                 TokenCount high_budget_cap = 0)
    {
        IterationPlan out;
        greedySelectInto(order, pool, stop_at_unfit, out,
                         high_prefix_len, high_budget_cap);
        return out;
    }

    std::vector<workload::Request*> requests;

    /** Insertion-ordered intrusive hosted list (see hostedHead()). */
    workload::Request* hostedFirst = nullptr;
    workload::Request* hostedLast = nullptr;

    SchedLimits limits;
    const predict::LengthPredictor* lengthPredictor = nullptr;

    /** Reusable order buffer for planInto implementations. */
    std::vector<workload::Request*> orderScratch;

    bool incremental = false;
    InstanceId instanceId = kNoInstance;

  private:
    /** Process-wide unique warmSort() stamp, so a request carried over
     *  from another queue or scheduler never matches a memo. */
    static std::uint64_t nextSortStamp();

    /** Force-resort debug mode (SchedLimits::forceResort or the
     *  PASCAL_FORCE_RESORT environment variable, read at construction):
     *  no incremental mode, and warmSort() sorts from scratch. */
    bool resortForced = false;

    /** @name warmSort() scratch */
    /** @{ */
    std::vector<workload::Request*> sortSlots;
    std::vector<workload::Request*> sortChanged;
    /** @} */

    /**
     * Shared tail of the greedy walk: keep unselected residents while
     * @p leftover_budget covers them and evict the rest. The walk
     * records them in priority order, so no re-sort is needed.
     */
    void finishGreedySelect(const model::KvPool& pool,
                            IterationPlan& out,
                            TokenCount leftover_budget);

    /** O(batch) re-walk of the recorded greedy selection. */
    bool revalidate(const IterationPlan& prev,
                    const model::KvPool& pool) const;

    /** Keyed reuse, check (c) of reusePlan(): re-keys @p prev's decode
     *  members (updating their schedScore) and proves the walk would
     *  still select them in the same order. */
    bool keyedOrderHolds(const IterationPlan& prev);

    /** Current predictor version (0 without a predictor). */
    std::uint64_t
    predictorVersion() const
    {
        return lengthPredictor != nullptr ? lengthPredictor->version()
                                          : 0;
    }

    void
    recordDecode(const workload::Request* r, bool capped)
    {
        lastDecodeCapped.push_back(capped ? 1 : 0);
        if (keyedReuse) {
            lastDecodeKeys.push_back({r->schedScore, r->quantaConsumed,
                                      r->phase(), r->schedClassRank});
        }
    }

    /** Recompute-mode counter scans. */
    int scanReasoning() const;
    int scanFreshAnswering() const;

    /** Maintained monitor counters (incremental mode). */
    int reasoningCount = 0;
    int freshAnsweringCount = 0;

    /** Telemetry: why the last reuse attempt declined. */
    PlanDecline reuseDecline = PlanDecline::None;

    /** Plan reuse for a predictor-keyed scheduler in recompute mode
     *  (set by enableIncremental()). */
    bool keyedReuse = false;

    /** Any membership/residency/key/queue change since the last
     *  buildPlan. add(), remove() and noteResidency() raise it in
     *  both modes. */
    bool stateChanged = true;

    /** Last plan qualifies for verbatim reuse (pure decode). */
    bool lastPlanReusable = false;

    /** @name Reuse-validation record of the last greedy walk */
    /** @{ */

    std::vector<workload::Request*> lastKeptResidents;
    std::vector<std::uint8_t> lastDecodeCapped;
    TokenCount lastHighBudgetCap = -1; //!< -1: no high-queue cap.

    /** Keyed reuse: a decode member's key fields as the walk saw
     *  them. */
    struct DecodeKeys
    {
        double score = 0.0;         //!< schedScore.
        int quanta = 0;             //!< quantaConsumed.
        workload::Phase phase = workload::Phase::Reasoning;
        std::uint8_t classRank = 0; //!< schedClassRank.
    };

    /** Parallel to lastDecodeCapped (keyed reuse only). */
    std::vector<DecodeKeys> lastDecodeKeys;

    /** Predictor version the last plan was built under (keyed
     *  reuse). */
    std::uint64_t lastPredictorVersion = 0;

    /**
     * O(1) steady-state budget check (uncapped walks only): histogram
     * of the decode members' kv % blockSize at build time. During a
     * run of verbatim reuses every member's KV grows by exactly one
     * token per iteration, so the number of members crossing a paged
     * block boundary at reuse k is blockOffsetHist[(block - k%block) %
     * block], and the whole walk revalidation collapses to
     *   gpuUsed + blockSize * crossings <= capacity
     * (selection prefix sums and the kept-resident walk are both
     * bounded by that total when no per-member cap applies).
     */
    std::vector<std::uint32_t> blockOffsetHist;

    /**
     * Verbatim reuses since the last buildPlan (reset there). Anchors
     * the histogram phase: at a boundary with planAge = a, every
     * decode member has executed exactly a + 1 times since its
     * histogram bucket was recorded.
     */
    std::uint64_t planAge = 0;
    /** @} */
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_INTRA_SCHEDULER_HH
