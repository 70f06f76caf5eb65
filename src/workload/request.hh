/**
 * @file
 * The request model: immutable trace spec + mutable runtime state.
 *
 * A reasoning-LLM request advances through
 *   Reasoning (prefill + reasoning-token decode)
 *     -> Answering (user-visible tokens)
 *       -> Finished,
 * matching Fig. 1(b) of the paper. Per Section II-D the reasoning phase
 * includes the prefill stage. The phase transition is *observed* when
 * the final reasoning token (the </think> marker) is emitted; it cannot
 * be predicted in advance.
 *
 * A request keeps no per-token history: each answering token is folded
 * into fixed-size QoE state on emission (qoe::QoeFold), so a request's
 * footprint does not grow with its answer length.
 */

#ifndef PASCAL_WORKLOAD_REQUEST_HH
#define PASCAL_WORKLOAD_REQUEST_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.hh"
#include "src/qoe/qoe.hh"
#include "src/workload/slo_class.hh"

namespace pascal
{
namespace workload
{

/** Execution phase of a request (paper Fig. 1(b)). */
enum class Phase
{
    Reasoning, //!< Prefill + hidden reasoning-token decode.
    Answering, //!< User-visible answering-token decode.
    Finished,  //!< All tokens generated.
};

/** Where the request currently sits in the serving machinery. */
enum class ExecState
{
    Unassigned,  //!< Not yet routed to an instance.
    WaitingNew,  //!< On an instance, no KV yet (needs prefill).
    ResidentGpu, //!< KV in GPU HBM; decodable.
    SwappedCpu,  //!< KV offloaded to host DRAM (preempted).
    InTransit,   //!< KV migrating between instances.
    Done,        //!< Finished; KV released.
};

/** Why a request terminally failed under fault injection. */
enum class FailReason : std::uint8_t
{
    None,        //!< Not failed (completed or still running).
    RetryBudget, //!< Crash/link-failure retries exhausted the budget.
    Shed,        //!< Rejected at admission while capacity was below
                 //!< the configured shed floor.
    DeadlineExceeded, //!< The request's per-class relative deadline
                      //!< expired before completion (SLO classes).
};

/** Dense per-run index of a dataset label (RequestSpec::dataset),
 *  assigned by a DatasetTable in order of first appearance. */
using DatasetId = std::uint16_t;

/** The id of a request built without a DatasetTable. No table assigns
 *  it, and per-dataset predictors serve such a request their global
 *  statistics and learn no row from it. */
constexpr DatasetId kNoDataset = 0xffff;

/**
 * Interns dataset labels into DatasetIds. A run interns its trace once,
 * as it constructs the requests (Cluster::submitTrace), so per-dataset
 * consumers (the profile and rank predictors) index by id and never
 * compare labels.
 */
class DatasetTable
{
  public:
    /** The id of @p label, assigned on first sight.
     *  @throws FatalError past 65535 distinct labels (kNoDataset is
     *          never assigned). */
    DatasetId intern(const std::string& label);

    /** Distinct labels interned so far. */
    std::size_t size() const { return ids.size(); }

  private:
    std::unordered_map<std::string, DatasetId> ids;
};

/** Immutable description of one request, as read from a trace. */
struct RequestSpec
{
    RequestId id = kNoRequest;
    Time arrival = 0.0;
    TokenCount promptTokens = 0;
    TokenCount reasoningTokens = 0; //!< 0 iff startInAnswering.
    TokenCount answerTokens = 0;

    /**
     * Fig. 5 mode: the request enters the system already past its
     * reasoning phase; its prompt KV is assumed pre-generated
     * (allocated without prefill cost) and every generated token is an
     * answering token.
     */
    bool startInAnswering = false;

    /** Source dataset label, kept for CSV I/O and reports; at run
     *  time consumers read the interned Request::datasetId. */
    std::string dataset;

    /** Service class (inert unless SloClassConfig::enabled). */
    SloClass sloClass = SloClass::Standard;

    /** Sanity-check the spec; calls fatal() on malformed entries. */
    void validate() const;
};

/** Time breakdown within one phase (the Fig. 4 / Fig. 5 stacks). */
struct PhaseBuckets
{
    double executed = 0.0;  //!< Actively running on the GPU.
    double blocked = 0.0;   //!< Waiting, never yet started.
    double preempted = 0.0; //!< Waiting after having started.

    double total() const { return executed + blocked + preempted; }
};

/** Which bucket a waiting interval belongs to. */
enum class BucketKind
{
    Executed,
    Blocked,
    Preempted,
};

/**
 * Mutable runtime state of one request.
 *
 * Owned by the Cluster; instances and schedulers hold raw pointers.
 */
class Request
{
  public:
    /** @param dataset_id The spec's interned dataset label (see
     *         DatasetTable); requests of one run must share a table.
     *         Without one the request has no dataset (kNoDataset). */
    explicit Request(RequestSpec s, DatasetId dataset_id = kNoDataset);

    const RequestSpec& spec() const { return specData; }
    RequestId id() const { return specData.id; }

    /** @name Token progress */
    /** @{ */

    /** Decode tokens generated so far (reasoning + answering). */
    TokenCount generated() const { return generatedTokens; }

    /** Reasoning tokens generated so far. */
    TokenCount
    reasoningGenerated() const
    {
        return generatedTokens < specData.reasoningTokens
                   ? generatedTokens
                   : specData.reasoningTokens;
    }

    /** Answering tokens generated so far. */
    TokenCount
    answerGenerated() const
    {
        return generatedTokens > specData.reasoningTokens
                   ? generatedTokens - specData.reasoningTokens
                   : 0;
    }

    /** Total tokens this request will generate. */
    TokenCount
    totalToGenerate() const
    {
        return specData.reasoningTokens + specData.answerTokens;
    }

    /** Current phase implied by progress. Inline: this is the single
     *  most-called accessor on the simulation hot path. */
    Phase
    phase() const
    {
        if (generatedTokens >= totalToGenerate())
            return Phase::Finished;
        if (generatedTokens >= specData.reasoningTokens)
            return Phase::Answering;
        return Phase::Reasoning;
    }

    bool finished() const { return phase() == Phase::Finished; }

    /**
     * KV tokens logically owned right now: prompt + generated tokens
     * (each decoded token appends one KV entry).
     */
    TokenCount kvTokens() const
    {
        return specData.promptTokens + generatedTokens;
    }

    /** Record the emission of one decode token at time @p now.
     *  Updates phase timestamps and quantum accounting. Inline: runs
     *  once per decode-batch member per iteration. */
    void
    emitToken(Time now, TokenCount quantum)
    {
        if (finished())
            emitTokenPanic();
        ++generatedTokens;
        if (quantum > 0) {
            ++quantumTokens;
            if (quantumTokens >= quantum) {
                quantumTokens = 0;
                ++quantaConsumed;
            }
        }
        if (!specData.startInAnswering &&
            generatedTokens == specData.reasoningTokens) {
            // This token is the </think> marker: the reasoning phase
            // ends here and the instance monitor observes the
            // transition.
            reasoningEnd = now;
        }
        if (generatedTokens == specData.reasoningTokens + 1) {
            // First answering token (for startInAnswering requests,
            // whose reasoningTokens is 0, the first token of all).
            firstAnswer = now;
            qoe.first(now, reasoningEnd);
            if (bestEffortQoe)
                bestEffortQoe->first(now, reasoningEnd);
        } else if (generatedTokens > specData.reasoningTokens) {
            const TokenCount k =
                generatedTokens - specData.reasoningTokens - 1;
            qoe.next(now, k);
            if (bestEffortQoe)
                bestEffortQoe->next(now, k);
        }
        if (generatedTokens == totalToGenerate())
            finish = now;
    }

    [[noreturn]] void emitTokenPanic() const;

    /** Mark prefill completion at @p now; emits the first reasoning
     *  token (Fig. 1(b): prefill produces r1). */
    void completePrefill(Time now, TokenCount quantum);

    /** @} */

    /** @name Scheduling state (manipulated by instances/schedulers) */
    /** @{ */

    ExecState exec = ExecState::Unassigned;
    InstanceId home = kNoInstance;
    bool demoted = false;       //!< PASCAL: forced into the low queue.
    bool prefillDone = false;

    /** Terminal failure reason (fault layer); None otherwise. */
    FailReason failReason = FailReason::None;

    /** Placement retries consumed (crashes, link failures,
     *  no-capacity outcomes) against FaultConfig::retryBudget. */
    int retryCount = 0;

    /** Monotonic KV-transfer attempt counter; feeds the stateless
     *  per-attempt link-failure draw so the verdict is independent of
     *  event interleaving. */
    std::uint64_t transferNonce = 0;

    /** Tokens generated inside the current quantum. */
    TokenCount quantumTokens = 0;
    /** Full quanta consumed (the RR priority key; more = lower prio). */
    int quantaConsumed = 0;

    /** Reset quantum accounting (PASCAL does this when a request
     *  changes queues at the phase boundary). */
    void resetQuantum();

    /** @name SLO-class state (owned by the Cluster's class layer)
     *
     * All fields stay at their zero defaults while the class
     * subsystem is disabled, so every comparator that reads
     * schedClassRank falls through to the policy's own key and runs
     * are byte-identical to a classless build.
     */
    /** @{ */

    /** Scheduler class rank: sloClassIndex(spec().sloClass) when
     *  classes are enabled, kBestEffortClassRank after a
     *  demote-on-expiry, 0 otherwise. Lower runs earlier; the FIRST
     *  comparison of every shipped policy order. */
    std::uint8_t schedClassRank = 0;

    /** The armed relative deadline fired before completion. */
    bool deadlineExpired = false;

    /** Demoted to best-effort after a deadline expiry: scheduled
     *  behind every real class and scored against Batch targets. */
    bool bestEffort = false;

    /** Pending deadline event on the cluster's simulator
     *  (sim::kNoEvent when none armed). */
    std::uint64_t deadlineEventId = 0;

    /** @} */

    /** @name Intrusive scheduler/engine bookkeeping
     *
     * Owned by the hosting core::IntraScheduler (sched*) and
     * cluster::Instance (runEpoch); not part of the workload
     * semantics. Keeping these fields inside the request spares the
     * scheduling structures any side table: the queues store raw
     * pointers, and a request carries its queue tag, dirtiness and
     * cached ordering keys itself.
     */
    /** @{ */

    /** Index in the scheduler's hosted vector (O(1) removal). */
    std::size_t schedHostedPos = 0;

    /** Intrusive insertion-order hosted list (O(1) unlink). The
     *  hosted vector uses swap-pop removal, so consumers that need
     *  the original arrival order — the snapshot's floating-point
     *  prediction sum, whose result depends on summation order —
     *  walk this list instead. */
    Request* schedPrevHosted = nullptr;
    Request* schedNextHosted = nullptr;

    /** Cached predictor rank score used as the ordering key by
     *  SRPT/PASCAL-Spec; re-read once per dirty member at its queue's
     *  repair, so comparisons never call the predictor (0
     *  elsewhere). */
    double schedScore = 0.0;

    /** quantaConsumed at the last scheduler sync (change detector). */
    int schedCachedQuanta = 0;

    /** Which scheduler queue holds the request (0 = none). */
    std::uint8_t schedQueueTag = 0;

    /** Pending in its queue: new, or its key changed since the last
     *  repair. */
    bool schedDirtyPending = false;

    /** Counted in the scheduler's maintained r_i counter. */
    bool schedCountedReasoning = false;

    /** Counted in the scheduler's maintained a_i counter. */
    bool schedCountedFreshAns = false;

    /** Queued for a demotion-rule re-check (KV or prediction moved). */
    bool schedDemotionPending = false;

    /** The interned spec().dataset, set at construction (declared
     *  here, where it fills alignment padding). */
    DatasetId datasetId = kNoDataset;

    /** The hosting scheduler's key epoch at which schedScore was last
     *  read from the predictor: a key stamped with the current epoch
     *  is fresh, so no boundary predicts a member twice (0 = never). */
    std::uint32_t schedKeyEpoch = 0;

    /** Instance iteration epoch when the request last ran (replaces
     *  the per-iteration hash-set batch membership test). */
    std::uint64_t runEpoch = 0;

    /**
     * Intrusive slot in one of the hosting instance's SLO-monitor
     * heaps (-1 = not answering). The heaps track, per answering
     * request, the earliest time its TPOT/TTFAT verdict could flip,
     * so the monitor's answeringSloOk is a peek at the heap tops
     * instead of an O(hosted) walk (see cluster::SloMonitor).
     */
    std::int32_t sloHeapPos = -1;

    /** Cached conservative flip-time key, relative to the holding
     *  heap's offset (valid while sloHeapPos >= 0). */
    double sloKey = 0.0;

    /** Which SLO-monitor heap holds the request: 0 = parked, 1.. =
     *  pacing (valid while sloHeapPos >= 0). */
    std::int8_t sloHeapId = -1;

    /** Compact KV-pool slot on the hosting instance's KvPool
     *  (model::KvPool hands it out on alloc); -1 when no KV is
     *  tracked. Keeping the handle here makes every per-token pool
     *  call a direct array index and lets the pool's table be sized
     *  by *live* requests instead of the largest RequestId ever
     *  hosted. */
    std::int32_t kvSlot = -1;

    /** @} */

    /** @name Accounting */
    /** @{ */

    /**
     * Accrue wall time since the last accrual into the bucket @p kind
     * of the *current* phase. Call before mutating token progress so
     * the interval lands in the phase it was spent in. Inline: runs
     * once per batch member per iteration.
     */
    void
    accrue(Time now, BucketKind kind)
    {
        double dt = now - lastAccount;
        lastAccount = now;
        if (dt <= 0.0)
            return;
        PhaseBuckets& b = (phase() == Phase::Reasoning)
                              ? reasoningBuckets
                              : answeringBuckets;
        switch (kind) {
          case BucketKind::Executed:
            b.executed += dt;
            break;
          case BucketKind::Blocked:
            b.blocked += dt;
            break;
          case BucketKind::Preempted:
            b.preempted += dt;
            break;
        }
    }

    /** Reset the accrual cursor without booking time (on arrival or
     *  when landing on a new instance), stamping the standing bucket
     *  the request accrues into until the next stampAccrual(). */
    void
    resetAccrual(Time now, BucketKind kind = BucketKind::Blocked)
    {
        lastAccount = now;
        accrualKind = kind;
    }

    /**
     * Lazy-accrual stamp: which bucket the request is currently
     * accruing into. Instead of booking every iteration's wall time
     * for every hosted request (the old O(hosted) accrueAll walk),
     * the engine restamps a request only when its standing bucket
     * changes (batch entry/exit, admit, swap, detach, migration) and
     * the elapsed interval is settled in one addition at the next
     * observation point (emission, detach, finish, scoring). The
     * PASCAL_FORCE_ACCRUE debug mode keeps the eager per-iteration
     * walk as a verification pass that panics on any stale stamp.
     */
    BucketKind accrualKind = BucketKind::Blocked;

    /** Settle the interval since the last settlement into the stamped
     *  bucket of the current phase. */
    void settleAccrual(Time now) { accrue(now, accrualKind); }

    /** Settle under the old stamp, then switch the standing bucket
     *  to @p kind. */
    void
    stampAccrual(Time now, BucketKind kind)
    {
        accrue(now, accrualKind);
        accrualKind = kind;
    }

    PhaseBuckets reasoningBuckets;
    PhaseBuckets answeringBuckets;

    /** @} */

    /** @name Timestamps (negative = not yet happened) */
    /** @{ */

    Time firstScheduled = -1.0;  //!< First time any work ran for it.
    Time prefillEnd = -1.0;
    Time reasoningEnd = -1.0;    //!< </think> observed.
    Time firstAnswer = -1.0;     //!< First answering token: TTFT ref.
    Time finish = -1.0;
    Time firstAnswerScheduled = -1.0; //!< First answering-phase decode
                                      //!< step start (Fig. 13 blocking
                                      //!< latency reference).

    /** Streaming QoE of the answer, folded at each answering token
     *  against the request's own targets, bound at admission by
     *  qoe::bindQoeTargets() (zero targets until then). */
    qoe::QoeFold qoe;

    /** The same answer folded against Batch's targets, for a request
     *  that a deadline expiry can demote to best-effort mid-answer;
     *  null otherwise. Most requests cannot be demoted, so the fold
     *  is allocated only for those that can. */
    std::unique_ptr<qoe::QoeFold> bestEffortQoe;

    int migrationCount = 0;
    /** Per-migration end-to-end KV transfer latency (Sec. V-C). */
    std::vector<double> kvTransferLatencies;

    /** @} */

  private:
    RequestSpec specData;
    TokenCount generatedTokens = 0;
    Time lastAccount = 0.0;

};

} // namespace workload
} // namespace pascal

#endif // PASCAL_WORKLOAD_REQUEST_HH
