/**
 * @file
 * The multi-instance serving cluster (Fig. 6): a pool of instances, an
 * instance-level scheduler routing arrivals and phase transitions, and
 * the 100 Gbps fabric carrying KV migrations.
 *
 * Fabric contention is modeled per target node: each instance owns an
 * ingress Link, so simultaneous migrations into the same node queue
 * behind each other (the Section V-C scenario).
 */

#ifndef PASCAL_CLUSTER_CLUSTER_HH
#define PASCAL_CLUSTER_CLUSTER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/instance.hh"
#include "src/cluster/system_config.hh"
#include "src/core/placement.hh"
#include "src/fault/fault_injector.hh"
#include "src/obs/streaming_metrics.hh"
#include "src/predict/predictor.hh"
#include "src/qoe/metrics.hh"
#include "src/sim/simulator.hh"
#include "src/workload/request_arena.hh"
#include "src/workload/trace.hh"

namespace pascal
{
namespace cluster
{

/** The complete simulated deployment. */
class Cluster
{
  public:
    /**
     * @param sim Shared simulator (must outlive the cluster).
     * @param cfg Validated system configuration.
     */
    Cluster(sim::Simulator& sim, const SystemConfig& cfg);

    /** Schedule every request of @p trace as arrival events.
     *  Consecutive same-timestamp requests are scheduled as ONE burst
     *  event, so their placement decisions and admissions drain
     *  back-to-back and each instance plans the burst only after it
     *  is fully placed. */
    void submitTrace(const workload::Trace& trace);

    /**
     * Opt-in for long-lived clusters fed thousands of traces: once
     * every request of a submitted trace has finished, score the
     * chunk into compact per-request metrics rows and recycle its
     * arena storage, so resident Request memory (including the
     * per-token emission vectors) stays bounded by *live* requests.
     * collectMetrics() output is byte-identical either way (same
     * rows, same order). Call before the simulation runs.
     */
    void enableChunkRecycling() { chunkRecycling = true; }

    /** Resolved per-instance GPU KV capacity (tokens). */
    TokenCount kvCapacityTokens() const { return kvCapacity; }

    /** Score all requests against the configured SLO. */
    std::vector<qoe::RequestMetrics> collectMetrics() const;

    /** Requests that never finished: the ones still live (trace
     *  infeasible or horizon hit) plus the terminal failures. */
    std::size_t
    numUnfinished() const
    {
        return static_cast<std::size_t>(liveRequests) +
               terminalFailuresCount;
    }

    /** Largest GPU KV occupancy seen on any instance. */
    TokenCount maxPeakGpuKv() const;

    const std::vector<std::unique_ptr<Instance>>&
    getInstances() const
    {
        return instances;
    }

    const SystemConfig& config() const { return cfg; }

    /** @name Fault layer
     *
     * The failover path is driven by the seeded FaultInjector when
     * cfg.fault.enabled, but the entry points are public so tests can
     * script exact fault timings (enable the fault layer with all
     * rates at zero and call these directly). On crash, hosted
     * requests lose GPU KV (CPU-offloaded KV survives when
     * cfg.fault.preserveCpuKv), get re-queued through placement under
     * capped exponential backoff, and terminally fail with an
     * accounted FailReason once the per-request retry budget is
     * spent. Requires the fault layer (panics when cfg.fault.enabled
     * is false — the migration abort checks would silently not run).
     */
    /** @{ */

    /** Take an instance down now and run the failover path. */
    void crashInstance(InstanceId id);

    /** Bring a crashed/drained-out instance back up. */
    void recoverInstance(InstanceId id);

    /** Begin a planned decommission: placement routes away, the
     *  engine keeps executing. */
    void startDrain(InstanceId id);

    /** Drain deadline: take the (draining) instance down like a
     *  crash. */
    void finishDrain(InstanceId id);

    /** Apply a straggler latency multiplier (1.0 restores). */
    void setStraggler(InstanceId id, double factor);

    /** Per-instance fabric ingress link (tests observe in-flight
     *  migrations/restores through its busy horizon). */
    const model::Link& ingressLink(InstanceId id) const
    {
        return *ingress[static_cast<std::size_t>(id)];
    }

    /** @} */

    /** The shared length predictor (nullptr when cfg.predictor is
     *  None). Exposed so harnesses can inspect what a run learned. */
    const predict::LengthPredictor* lengthPredictor() const
    {
        return predictor.get();
    }

    /**
     * Debug/test hook: at every placement decision, run each
     * instance's SloMonitor audit (Instance::verifySloHeap) before the
     * view is built. The cluster-view suites churn a multi-instance
     * deployment with this on, proving the maintained SLO heaps agree
     * with a from-scratch recomputation at every decision point.
     */
    void enableViewAudit() { viewAudit = true; }

    /** @name Observability (src/obs/) */
    /** @{ */

    /** The gem5-style stat registry: the one record of every
     *  engine/plan/view/KV/fault/class counter, under a hierarchical
     *  dotted name ("cluster.fault.crashes",
     *  "cluster.slo.<class>.shed", "instance.<i>.engine.iterations").
     *  Always built (it is non-owning pointers over counters that
     *  exist anyway). */
    const obs::StatRegistry& statRegistry() const { return registry; }

    /** Snapshot every registered stat (registration order). */
    obs::StatDump dumpStats() const { return registry.dump(); }

    /** The trace sink, or nullptr when cfg.telemetry.traceEnabled is
     *  off. */
    obs::TraceSink* traceSink() { return trace.get(); }
    const obs::TraceSink* traceSink() const { return trace.get(); }

    /** Chrome trace-event JSON of the recorded ring ("" when tracing
     *  is off). */
    std::string traceJson() const
    {
        return trace ? trace->writeJson() : std::string();
    }

    /** Streaming-sketch mode active (implies chunk recycling). */
    bool streamingEnabled() const { return streaming != nullptr; }

    /**
     * Streaming mode's end-of-run rollup: a copy of the running
     * sketch with every still-unretired request folded in (settling
     * lazily accrued phase time exactly like collectMetrics), so it
     * covers the same population collectMetrics would score. nullptr
     * when streaming is off.
     */
    std::shared_ptr<const obs::StreamingMetrics>
    finalStreamingMetrics() const;

    /** @} */

  private:
    /** Route @p n same-timestamp arrivals via Placement::placeNew
     *  (Algorithm 1). Each member's decision sees the previous
     *  members admitted — identical to the per-arrival chain — but
     *  the admissions share one deferred plan boundary per touched
     *  instance. */
    void onArrivals(workload::Request* first, std::uint32_t n);

    /** Chunk-recycling bookkeeping at request completion. */
    void noteRequestFinished(workload::Request* req);

    /** Score and recycle a fully-finished trace chunk (from its own
     *  event, outside every engine loop that holds its requests). */
    void retireChunk(std::size_t idx);

    /** Handle a reasoning->answering transition (Algorithm 2 +
     *  adaptive override). */
    void onPhaseTransition(workload::Request* req, InstanceId from);

    /** Start a KV migration over the target's fabric ingress link. */
    void migrate(workload::Request* req, InstanceId from,
                 InstanceId to);

    /**
     * Send a detached request's KV over @p to's fabric ingress link
     * and land it there: the one transfer path of a migration and a
     * failover restore. A link failure or a dead target re-queues the
     * request, an expired fail-policy request never lands, and only a
     * @p migration books a Sec. V-C latency and a migrationCount.
     */
    void sendKv(workload::Request* req, InstanceId to, bool migration);

    /** @name Failover internals (fault layer) */
    /** @{ */

    /** Shared crash body: detach/preserve hosted work and re-queue
     *  the orphans (@p why distinguishes crash vs drain deadline in
     *  the trace). */
    void crashImpl(InstanceId id, obs::TraceName why);

    /** Schedule a backoff retry for a displaced request, or fail it
     *  terminally once the budget is spent. */
    void requeueRequest(workload::Request* req);

    /** Backoff expired: place the request again; prefill-complete
     *  requests re-materialize their KV over the target's ingress
     *  link (as if restored from a replica) instead of recomputing
     *  the prefill. */
    void retryPlace(workload::Request* req);

    /** Account a terminal failure and release the request. */
    void failTerminally(workload::Request* req,
                        workload::FailReason reason);

    /** Fraction of instances currently routable (up, not draining). */
    double upFraction() const;

    /** @} */

    /** @name SLO-class internals (tentpole: deadline-aware admission,
     *  request timeouts, graceful degradation) */
    /** @{ */

    /** Class-aware admission: shed the arrival when its class's
     *  overload floors or the deadline-slack bound say the cluster
     *  cannot serve it. @return true when the request was shed. */
    bool classAdmissionShed(workload::Request* req);

    /** Arm the per-request deadline timeout (no-op when the class has
     *  no relative deadline or enforcement is off). */
    void armDeadline(workload::Request* req);

    /** The deadline event fired: mark expiry and enforce it. */
    void onDeadlineFire(workload::Request* req);

    /**
     * The one expiry rule: apply an expired request's class policy
     * wherever it is. Demotion flags it best-effort (re-keyed now if
     * hosted, at landing or retry admission otherwise) and counts it
     * once. Failure detaches a hosted request; a displaced one (KV on
     * the wire, or in backoff) fails only at a @p touchdown — the
     * requeue, retry wake-up or transfer landing it next reaches. A
     * hosted request on an instance with a step in flight is parked
     * there until the step ends. Called from the deadline event, the
     * plan-boundary and crash drains, and every touchdown.
     * @return true when the request was failed (consumed).
     */
    bool enforceExpiry(workload::Request* req, bool touchdown);

    /** Free GPU KV across routable instances as a capacity fraction. */
    double freeGpuKvFraction() const;

    /** @} */

    /**
     * The placement algorithms' cluster view: every instance's
     * snapshot taken fresh at @p now, so a decision always sees
     * current state.
     */
    const core::ClusterView& buildView(Time now);

    sim::Simulator& sim;
    SystemConfig cfg;
    model::PerfModel perf;
    TokenCount kvCapacity;
    std::unique_ptr<predict::LengthPredictor> predictor;
    std::unique_ptr<core::Placement> placement;
    std::vector<std::unique_ptr<Instance>> instances;
    std::vector<std::unique_ptr<model::Link>> ingress;

    /** All Requests of every submitted trace, in contiguous per-trace
     *  chunks (mutable: scoring lazily settles accrued phase time —
     *  an observation, not a simulation step). */
    mutable workload::RequestArena requests;

    /** @name Chunk recycling state */
    /** @{ */
    bool chunkRecycling = false;
    std::vector<std::size_t> chunkLive; //!< Unfinished per chunk.
    /** Scored rows of retired chunks, in chunk order (so
     *  collectMetrics output is order-identical with recycling).
     *  Streaming mode leaves these empty — rows fold into the sketch
     *  at retire time instead of being stored. */
    std::vector<std::vector<qoe::RequestMetrics>> retiredMetrics;
    /** Chunks already retired (streaming mode leaves retiredMetrics
     *  empty, so emptiness cannot mark retirement). */
    std::vector<std::uint8_t> chunkRetired;
    /** @} */

    /** @name Observability state */
    /** @{ */
    obs::StatRegistry registry;
    std::unique_ptr<obs::TraceSink> trace;  //!< Null unless tracing.
    std::unique_ptr<obs::StreamingMetrics> streaming; //!< Null unless on.
    /** @} */

    /** @name Cluster view state */
    /** @{ */
    core::ClusterView view; //!< Reused storage for buildView().
    bool viewAudit = false;
    std::uint64_t viewRefreshes = 0;
    std::uint64_t viewBuilds = 0;
    /** @} */

    std::uint64_t migrations = 0;

    /** @name Fault layer state */
    /** @{ */

    /** Seeded fault scheduler (null unless cfg.fault.enabled; the
     *  null check also gates every failover branch on hot paths, so
     *  fault-off runs take the exact pre-fault code). */
    std::unique_ptr<fault::FaultInjector> injector;

    /** Submitted-but-not-yet-finished requests (includes terminal
     *  failures as finished); gates fault-chain re-arming. */
    std::int64_t liveRequests = 0;

    /** crashImpl scratch: requests displaced by one crash. */
    std::vector<workload::Request*> orphanScratch;

    std::uint64_t numCrashesCount = 0;
    std::uint64_t numDrainsCount = 0;
    std::uint64_t stragglerWindowsCount = 0;
    std::uint64_t linkFailuresCount = 0;
    std::uint64_t retriesCount = 0;
    std::uint64_t shedCount = 0;
    std::uint64_t terminalFailuresCount = 0;
    /** @} */

    /** @name SLO-class state */
    /** @{ */

    /** Cached cfg.sloClasses.enabled: the single gate every class
     *  branch on a hot path checks, so classes-off runs take the
     *  exact pre-class code. */
    bool classesOn = false;

    std::array<std::uint64_t, workload::kNumSloClasses>
        classSubmittedCount{};
    std::array<std::uint64_t, workload::kNumSloClasses>
        classCompletedCount{};
    std::array<std::uint64_t, workload::kNumSloClasses>
        classShedCount{};
    std::array<std::uint64_t, workload::kNumSloClasses>
        classDeadlineFailedCount{};
    std::array<std::uint64_t, workload::kNumSloClasses>
        classRetryFailedCount{};
    std::array<std::uint64_t, workload::kNumSloClasses>
        classDemotedCount{};
    /** @} */
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_CLUSTER_HH
