/**
 * @file
 * TraceSink: Chrome/Perfetto trace-event recording from a bounded
 * ring buffer.
 *
 * Instrumentation points (Instance/Cluster) record compact POD events
 * stamped with deterministic virtual time; writeJson() renders the
 * Chrome trace-event format (https://ui.perfetto.dev loads it
 * directly). Tracks map pid 0 / tid <instance id>, with cluster-level
 * events (SLO verdict flips, phase-transition decisions) on the
 * dedicated kClusterTrack tid.
 *
 * Event vocabulary (category / name / phase):
 *   iteration / iteration      "X"  one engine step, dur = step time,
 *                                   arg batch = decode batch size
 *   plan      / reuse          "i"  boundary ran the previous plan
 *             / full_walk      "i"  full greedy walk; arg reason =
 *                                   why verbatim reuse declined
 *   admission / admit          "i"  request admitted, arg req
 *   eviction  / evict          "i"  request swapped out, arg req
 *   phase     / stay|migrate   "i"  reasoning->answering decision
 *   migration / kv_transfer    "b/e" async KV move, id = request id
 *   slo       / ok|violated    "i"  instance t_i verdict flip
 *   fault     / crash          "i"  instance went down (GPU KV lost)
 *             / recover        "i"  instance rejoined after MTTR
 *             / drain_start    "i"  planned decommission began
 *             / drain_deadline "i"  grace expired, instance down
 *             / straggler_start"i"  slowdown window opened, arg v =
 *                                   latency multiplier x1000
 *             / straggler_end  "i"  slowdown window closed
 *             / link_fail      "i"  KV transfer aborted in flight,
 *                                   arg req
 *   retry     / scheduled      "i"  failover re-placement queued with
 *                                   backoff, arg req
 *             / shed           "i"  arrival rejected below the shed
 *                                   floor, arg req
 *             / terminal_fail  "i"  retry budget exhausted, arg req
 *
 * Determinism: timestamps are virtual seconds (rendered as
 * microseconds), recording order is simulation order, and the ring is
 * per-run — two runs of the same seed produce byte-identical JSON,
 * and SweepRunner grid points trace identically at any thread count.
 *
 * When the ring wraps, the oldest events are overwritten (warnOnce
 * diagnoses the first drop). Export repairs the seam: async ends
 * whose begin was evicted are dropped, and spans still open at export
 * get a synthetic end at the last recorded timestamp, so the
 * validator's matched-pair check always holds.
 */

#ifndef PASCAL_OBS_TRACE_SINK_HH
#define PASCAL_OBS_TRACE_SINK_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/log.hh"

namespace pascal
{
namespace obs
{

/** Event categories (the Chrome "cat" field). */
enum class TraceCat : std::uint8_t
{
    Iteration,
    Plan,
    Admission,
    Eviction,
    Phase,
    Migration,
    Slo,
    Fault,
    Retry,
};

/** Event names within their category (the Chrome "name" field). */
enum class TraceName : std::uint8_t
{
    Iteration,
    PlanReuse,
    PlanFullWalk,
    Admit,
    Evict,
    PhaseStay,
    PhaseMigrate,
    KvTransfer,
    SloOk,
    SloViolated,
    Crash,
    Recover,
    DrainStart,
    DrainDeadline,
    StragglerStart,
    StragglerEnd,
    LinkFail,
    RetryScheduled,
    Shed,
    TerminalFail,
    ClassShed,         //!< SLO-class admission rejected the arrival.
    DeadlineExceeded,  //!< Per-request deadline timeout fired.
    Demoted,           //!< Expired request demoted to best-effort.
};

/** Key under which an event's numeric argument is rendered. */
enum class TraceArg : std::uint8_t
{
    None,   //!< No args object.
    Value,  //!< "v"
    Request,//!< "req"
    Reason, //!< "reason" (rendered as a string via the reason table).
    Batch,  //!< "batch"
    Tokens, //!< "tokens"
};

const char* traceCatName(TraceCat cat);
const char* traceNameStr(TraceName name);

/** One recorded event (compact POD; strings are table indices). */
struct TraceEvent
{
    double ts = 0.0;      //!< Virtual seconds.
    double dur = 0.0;     //!< "X" events only.
    std::uint64_t id = 0; //!< Async pair id ("b"/"e" events).
    std::int64_t arg = 0;
    std::int32_t tid = 0;
    char ph = 'i';
    TraceCat cat = TraceCat::Iteration;
    TraceName name = TraceName::Iteration;
    TraceArg argKey = TraceArg::None;
};

/** Bounded-ring Chrome trace recorder (see file header). */
class TraceSink
{
  public:
    /** tid used for cluster-level (non-instance) tracks. */
    static constexpr std::int32_t kClusterTrack = 9999;

    /** @param capacity Ring capacity in events (>= 1). */
    explicit TraceSink(std::size_t capacity);

    /** Record an instant event (ph "i"). */
    void instant(TraceCat cat, TraceName name, std::int32_t tid,
                 double ts, TraceArg arg_key = TraceArg::None,
                 std::int64_t arg = 0);

    /** Record a complete event (ph "X") with duration @p dur. */
    void complete(TraceCat cat, TraceName name, std::int32_t tid,
                  double ts, double dur,
                  TraceArg arg_key = TraceArg::None,
                  std::int64_t arg = 0);

    /** Record an async begin (ph "b"); pair with asyncEnd via
     *  (category, @p id). */
    void asyncBegin(TraceCat cat, TraceName name, std::int32_t tid,
                    double ts, std::uint64_t id,
                    TraceArg arg_key = TraceArg::None,
                    std::int64_t arg = 0);

    /** Record the matching async end (ph "e"). */
    void asyncEnd(TraceCat cat, TraceName name, std::int32_t tid,
                  double ts, std::uint64_t id);

    /**
     * Map reason codes to strings for TraceArg::Reason rendering
     * (wired by the owner with core's decline-reason table; codes
     * outside the table render numerically). @p names must outlive
     * the sink.
     */
    void setReasonTable(const char* const* names, std::size_t n);

    /** Events recorded over the sink's lifetime (including ones the
     *  ring has since overwritten). */
    std::uint64_t numRecorded() const { return recorded; }

    /** Events overwritten by ring wrap-around. */
    std::uint64_t numDropped() const;

    /** Events currently held. */
    std::size_t size() const;

    /** Render the ring as Chrome trace-event JSON (see file header
     *  for the export-seam cleanup). Deterministic byte output. */
    std::string writeJson() const;

  private:
    void push(const TraceEvent& e);

    /** Oldest-first visit of the ring's current contents. */
    template <typename Fn>
    void forEach(Fn&& fn) const;

    std::vector<TraceEvent> ring;
    std::size_t ringCapacity = 1;
    std::size_t head = 0;      //!< Oldest slot once wrapped.
    std::uint64_t recorded = 0;
    WarnSite wrapWarn;

    const char* const* reasonNames = nullptr;
    std::size_t numReasonNames = 0;
};

} // namespace obs
} // namespace pascal

#endif // PASCAL_OBS_TRACE_SINK_HH
