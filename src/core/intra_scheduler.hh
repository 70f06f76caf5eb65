/**
 * @file
 * Base class for intra-instance schedulers (Section II-C / IV-C).
 *
 * A scheduler owns the set of requests hosted on its instance and, at
 * every iteration boundary, produces an IterationPlan deciding which
 * requests prefill, decode, swap in, or are evicted, subject to the
 * GPU KV capacity.
 *
 * Every policy keeps its priority order in OrderedQueues and maintains
 * the r_i / a_i monitor counters as requests change. A build repairs
 * the queues, re-keying and re-placing only the members whose key
 * moved, and walks them greedily against the KV budget
 * (greedySelectRanges()). Between builds, reusePlan() lets the
 * instance run the last plan verbatim while nothing it depends on
 * changed.
 *
 * The dirty-set contract: every mutation of a hosted request's
 * scheduler-visible state reaches the scheduler through one of
 *
 *  - add() / remove()       membership (arrival, migration, finish,
 *                           class-rank change),
 *  - noteExecuted()         after each completePrefill(), and after
 *                           an emitToken() that reached the request's
 *                           wake token (wakeDue()),
 *  - onPhaseTransition()    reasoning->answering staying home,
 *  - noteResidency()        exec-state flips (swaps, prefill
 *                           allocation); no key reads them, so they
 *                           only block verbatim reuse.
 *
 * Wake tokens. Token progress moves a request's keys and counters at
 * a few tokens only: a quantum rollover, the </think> flip,
 * completion, and, in PASCAL's high queue, every token inside the
 * demotion window. Each time the scheduler handles a request (add(),
 * noteExecuted(), a demotion, a phase transition) it stores the next
 * of these, nextWake(), in the request's schedWake, and the engine
 * reports a decode emission only once generated() reaches it.
 * noteExecuted() is idempotent and may run at any token: an early wake
 * costs one call, while a late one would lose a key change.
 *
 * Predictor-keyed policies (keysUsePredictions(): SRPT, PASCAL-Spec)
 * order by a prediction that moves with the request's own progress.
 * Only the members of the plan in flight execute, so a build marks its
 * own decode and prefill members dirty once, as it hands the plan out;
 * no per-token notification re-keys them, and each key is re-read at
 * most once per boundary (the key epoch, see freshKey()). While
 * LengthPredictor::version() holds, an idle request's prediction
 * cannot move, and a plan is reused while its batch provably keeps its
 * order (keyedOrderHolds()). At the first boundary after the version
 * moves, every member goes dirty (onPredictionsMoved()) and the queues
 * are repaired there: if no member moved, the walk's order still holds
 * and the plan may be reused; otherwise the boundary builds on the
 * repaired queues.
 *
 * The force-resort twin (SchedLimits::forceResort, or the
 * PASCAL_FORCE_RESORT environment variable) is the independent
 * reference: it ignores the notifications, rebuilds every queue from
 * hosted() at each build (rebuildQueues()), re-keys and cold-sorts
 * every member, re-checks demotion on every high-queue request,
 * answers the monitor counters by scanning, and never reuses a plan.
 * The randomized invariance tests and the golden digests hold the two
 * byte-identical.
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

/** Stable lowercase name of each PlanDecline, index == enum value
 *  (TraceSink reason table). */
const char* const* planDeclineNames();

/** Number of entries in planDeclineNames(). */
std::size_t numPlanDeclineNames();

/** Interface + shared mechanics of intra-instance scheduling. */
class IntraScheduler
{
  public:
    /** @param keyed The policy orders by predictions (see
     *  keysUsePredictions()). */
    explicit IntraScheduler(SchedLimits limits, bool keyed = false);
    virtual ~IntraScheduler() = default;

    /** Hosted requests and PASCAL's high-queue alias refer into the
     *  scheduler, so it is not copyable. */
    IntraScheduler(const IntraScheduler&) = delete;
    IntraScheduler& operator=(const IntraScheduler&) = delete;

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

    /** True if @p req is currently hosted by *this* scheduler (the
     *  intrusive fields alone cannot tell schedulers apart). */
    bool
    isHosted(const workload::Request* req) const
    {
        return req->schedHostedPos < requests.size() &&
               requests[req->schedHostedPos] == req;
    }

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
     * it again verbatim. Holds when (a) plan reuse is on
     * (enableIncremental()), (b) the previous plan was pure decode (no
     * prefill / prewarm / swaps), (c) no membership, residency, key,
     * or demotion change was observed since, and (d) re-walking the
     * recorded selection against the pool shows every decode member
     * still fits and every kept resident still holds its memory. (d)
     * is O(batch) integer arithmetic — no sorting, no allocation.
     *
     * A predictor-keyed member's key moves every token without
     * raising (c), so for those policies (c) is also checked here, in
     * O(batch): every decode member keeps its build-time phase,
     * quanta, class rank and GPU residency, its re-read key
     * (queueKey()) is at most its recorded key, and members of one
     * queue are still in QueueOrder. Idle requests' keys are frozen
     * while the predictor version holds and the budget ahead of them
     * only shrinks, so none can overtake a member. A moved version
     * re-keys and repairs every queue first; the plan survives only if
     * no member moved, and the members' recorded keys are refreshed.
     * When it returns false the caller walks: buildPlan(), at the same
     * boundary, before any request executes.
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
     * maintained counters, forwards key changes to the subclass and
     * sets the request's next wake token. Owed after every prefill
     * completion and after each decode emission for which wakeDue()
     * holds; harmless after any other emission.
     */
    void noteExecuted(workload::Request* req);

    /** True if @p req, having just emitted a decode token, has reached
     *  its wake token, so noteExecuted() is owed. Inline: evaluated
     *  once per decode member per iteration. */
    static bool
    wakeDue(const workload::Request* req)
    {
        return req->generated() >=
               static_cast<TokenCount>(req->schedWake);
    }

    /** Paper r_i: reasoning requests in the high-priority queue
     *  (excludes demoted ones). O(1). */
    int numReasoning() const;

    /** Paper a_i: answering requests that have not exhausted their
     *  first time quantum. O(1). */
    int numFreshAnswering() const;

    const SchedLimits& schedLimits() const { return limits; }

    /**
     * Switch on verbatim plan reuse (reusePlan()); without it every
     * boundary builds. Ignored by the force-resort twin.
     */
    void enableIncremental();

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

    /** True if ordering keys come from the predictor: the members of
     *  each built plan go dirty once, and plans are reused only while
     *  the batch keeps its order. */
    bool keysUsePredictions() const { return keyed; }

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
    /** A position in an OrderedQueue's order. */
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

    /** Policy hook: repair the queues and walk them
     *  (greedySelectRanges()) into @p out, which arrives reset. */
    virtual void planInto(const model::KvPool& pool,
                          IterationPlan& out) = 0;

    /** @name Queue-maintenance hooks (the twin calls none of them)
     *
     * The defaults keep every hosted request in `queue`; a policy with
     * more queues (PASCAL) overrides them all. */
    /** @{ */

    /** @p req joined the hosted set: insert it into your queues (its
     *  key is read at the next repair). */
    virtual void onHostedAdded(workload::Request* req) { queue.insert(req); }

    /** @p req left the hosted set (erase it from your queues). */
    virtual void onHostedRemoved(workload::Request* req) { queue.erase(req); }

    /** The queue that holds @p r. */
    virtual OrderedQueue& queueOf(const workload::Request* r)
    {
        (void)r;
        return queue;
    }

    /**
     * @p req ran and reached its wake token (or finished prefill): its
     * generated-token count (hence KV and any prediction) advanced,
     * and possibly its quantum or phase. Mark it dirty in your queues
     * if a key level other than the prediction changed, and block plan
     * reuse if it did. A keyed member's moved prediction needs nothing
     * here: the build that selected it already marked it dirty.
     */
    virtual void onRequestExecuted(workload::Request* req,
                                   bool quanta_changed);

    /** Keyed policies: the predictor version moved since the last
     *  boundary, so every member's key may have. Marks every member
     *  dirty; runs before the queues are next repaired. */
    virtual void onPredictionsMoved();

    /** Repair every queue (re-keying pending members).
     *  @return true if any member moved or joined. */
    virtual bool repairQueues();

    /** @} */

    /** Force-resort twin: empty every queue and re-insert every hosted
     *  request by its current state, applying any demotion due. Runs
     *  at the start of every build. */
    virtual void rebuildQueues();

    /**
     * Last gate before verbatim plan reuse of @p prev; runs any
     * deferred decisions a build would take (PASCAL's demotion rule).
     * Return true to veto the reuse. May mutate scheduler state (an
     * applied demotion both vetoes and updates the queues).
     */
    virtual bool
    reuseVeto(const IterationPlan& prev)
    {
        (void)prev;
        return false;
    }

    /**
     * Ordering key cached into schedScore (ascending = served first):
     * the predictor's rank score for keyed policies, 0 otherwise. Read
     * only through freshKey().
     */
    virtual double
    queueKey(const workload::Request* req) const
    {
        (void)req;
        return 0.0;
    }

    /**
     * The generated() count at which @p req's state next needs
     * handling (its wake token; see the file comment): the next of its
     * quantum rollover, its </think> flip and its completion. A policy
     * with more token-driven rules adds their tokens. Must exceed
     * generated() unless the request is finished.
     */
    virtual TokenCount nextWake(const workload::Request* req) const;

    /** Store nextWake(@p req) in its schedWake, saturated. */
    void setWake(workload::Request* req) const;

    /**
     * @p r's key at this boundary: read once into schedScore and
     * stamped with the key epoch, which moves each time a plan is
     * handed out for execution. So the re-key of a reuse check and the
     * repair of the build that may follow it at the same boundary
     * predict each member once between them.
     */
    double
    freshKey(workload::Request* r) const
    {
        if (r->schedKeyEpoch != keyEpoch) {
            r->schedScore = queueKey(r);
            r->schedKeyEpoch = keyEpoch;
        }
        return r->schedScore;
    }

    /** Repair functor caching fresh keys into schedScore. */
    auto
    rekey() const
    {
        return [this](workload::Request* r) { freshKey(r); };
    }

    /** Subclasses call this whenever queue contents or keys changed
     *  outside buildPlan (blocks verbatim reuse until the next
     *  buildPlan). */
    void noteStateChanged() { stateChanged = true; }

    /** Recompute @p req's contribution to the maintained monitor
     *  counters from its live state. */
    void syncCounters(workload::Request* req);

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
     * Policies with skip semantics (RR, PASCAL, SRPT) pass
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

    std::vector<workload::Request*> requests;

    /** Insertion-ordered intrusive hosted list (see hostedHead()). */
    workload::Request* hostedFirst = nullptr;
    workload::Request* hostedLast = nullptr;

    SchedLimits limits;
    const predict::LengthPredictor* lengthPredictor = nullptr;
    InstanceId instanceId = kNoInstance;

    /** Force-resort twin (SchedLimits::forceResort or the
     *  PASCAL_FORCE_RESORT environment variable, read at
     *  construction). */
    const bool resortForced;

    /** The one queue of FCFS, RR and SRPT; PASCAL's high queue. */
    OrderedQueue queue{1};

  private:
    /** Orders by predictions (keysUsePredictions()). */
    const bool keyed;

    /** Verbatim plan reuse is on (enableIncremental()). */
    bool reuseEnabled = false;

    /** O(batch) re-walk of the recorded greedy selection. */
    bool revalidate(const IterationPlan& prev,
                    const model::KvPool& pool) const;

    /**
     * Shared tail of the greedy walk: keep unselected residents while
     * @p leftover_budget covers them and evict the rest. The walk
     * records them in priority order, so no re-sort is needed.
     */
    void finishGreedySelect(const model::KvPool& pool,
                            IterationPlan& out,
                            TokenCount leftover_budget);

    /** Keyed reuse, check (c) of reusePlan(): re-keys @p prev's decode
     *  members (updating their schedScore), after repairing every queue
     *  if the predictor version moved, and proves the walk would still
     *  select them in the same order. */
    bool keyedOrderHolds(const IterationPlan& prev);

    /** Keyed policies: @p plan's decode and prefill members are about
     *  to execute, which moves their predictions. */
    void markMembersDirty(const IterationPlan& plan);

    /** A plan is handed out for execution: every key read so far goes
     *  stale (0 stays reserved for "never read"). */
    void
    advanceKeyEpoch()
    {
        if (++keyEpoch == 0)
            keyEpoch = 1;
    }

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
        if (keyed) {
            lastDecodeKeys.push_back({r->schedScore, r->quantaConsumed,
                                      r->phase(), r->schedClassRank});
        }
    }

    /** The twin's monitor counters: O(hosted) scans. */
    int scanReasoning() const;
    int scanFreshAnswering() const;

    /** Maintained monitor counters. */
    int reasoningCount = 0;
    int freshAnsweringCount = 0;

    /** Telemetry: why the last reuse attempt declined. */
    PlanDecline reuseDecline = PlanDecline::None;

    /** Any membership/residency/key/queue change since the last
     *  buildPlan. add(), remove() and noteResidency() raise it. */
    bool stateChanged = true;

    /** Last plan qualifies for verbatim reuse (pure decode). */
    bool lastPlanReusable = false;

    /** @name Reuse-validation record of the last greedy walk */
    /** @{ */

    std::vector<workload::Request*> lastKeptResidents;
    std::vector<std::uint8_t> lastDecodeCapped;
    TokenCount lastHighBudgetCap = -1; //!< -1: no high-queue cap.

    /** Keyed reuse: a decode member's key fields as the walk saw
     *  them (scores refreshed where a version bump re-verified the
     *  whole order). */
    struct DecodeKeys
    {
        double score = 0.0;         //!< schedScore.
        int quanta = 0;             //!< quantaConsumed.
        workload::Phase phase = workload::Phase::Reasoning;
        std::uint8_t classRank = 0; //!< schedClassRank.
    };

    /** Parallel to lastDecodeCapped (keyed policies only). */
    std::vector<DecodeKeys> lastDecodeKeys;

    /** Predictor version the queues were last re-keyed under. */
    std::uint64_t lastPredictorVersion = 0;

    /** Key freshness stamp (see freshKey()). */
    std::uint32_t keyEpoch = 1;

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
