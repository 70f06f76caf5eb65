/**
 * @file
 * One serving instance: the continuous-batching execution engine that
 * turns scheduler IterationPlans into simulated iterations.
 *
 * An instance owns a model replica (represented by the shared
 * PerfModel), a KV pool, a PCIe host link for swap traffic, and an
 * intra-instance scheduler. At every iteration boundary it asks the
 * scheduler for a plan, applies the swaps (PCIe latency), then runs
 * either one prefill pass or one decode step and reports emissions,
 * phase transitions, and completions to the cluster.
 */

#ifndef PASCAL_CLUSTER_INSTANCE_HH
#define PASCAL_CLUSTER_INSTANCE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/slo_monitor.hh"
#include "src/core/cluster_view.hh"
#include "src/core/intra_scheduler.hh"
#include "src/model/kv_pool.hh"
#include "src/model/link.hh"
#include "src/model/perf_model.hh"
#include "src/obs/stat_registry.hh"
#include "src/obs/trace_sink.hh"
#include "src/predict/predictor.hh"
#include "src/qoe/slo.hh"
#include "src/sim/simulator.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace cluster
{

/** Cluster-side hooks invoked at iteration completion. */
struct InstanceCallbacks
{
    /** The request just emitted its final reasoning token; the
     *  instance-level scheduler decides where it answers. */
    std::function<void(workload::Request*, InstanceId)> onPhaseTransition;

    /** The request generated all its tokens and released its KV. */
    std::function<void(workload::Request*, InstanceId)> onFinished;

    /**
     * A hosted request whose deadline expired mid-step reached the
     * safe enforcement point (the iteration boundary): the cluster's
     * deadline policy (fail or demote) runs now. May be empty (the
     * deferred expiry is then dropped; standalone instances).
     */
    std::function<void(workload::Request*, InstanceId)> onDeadlineExpired;
};

/** Continuous-batching serving instance. */
class Instance
{
  public:
    /**
     * @param id Cluster-unique instance id.
     * @param sim Shared simulator (must outlive the instance).
     * @param perf Shared performance model.
     * @param sched Intra-instance scheduling policy (owned).
     * @param kv_capacity_tokens GPU KV capacity in tokens.
     * @param slo SLO targets for the t_i monitor condition.
     * @param callbacks Cluster hooks.
     * @param kv_block_size_tokens Paged-KV block size (>= 1).
     */
    Instance(InstanceId id, sim::Simulator& sim,
             const model::PerfModel& perf,
             std::unique_ptr<core::IntraScheduler> sched,
             TokenCount kv_capacity_tokens, const qoe::SloConfig& slo,
             InstanceCallbacks callbacks,
             TokenCount kv_block_size_tokens = 1);

    InstanceId id() const { return instanceId; }

    /**
     * Route a newly arrived request here (no KV yet).
     *
     * @param defer_plan The request is one member of a same-timestamp
     *        arrival burst whose remaining members are still being
     *        placed: admit now, but defer this member's plan boundary
     *        to a same-timestamp event, so the whole burst is placed
     *        before any of it is planned. The first deferred boundary
     *        plans the burst; the later ones find the step in flight
     *        (or rebuild the same idle plan).
     */
    void addRequest(workload::Request* req, bool defer_plan = false);

    /** A migrated request's KV just landed over the fabric. */
    void landMigration(workload::Request* req);

    /** Remove a request that migrates away; releases its KV. */
    void detach(workload::Request* req);

    /** @name Fault layer (driven by the Cluster's failover path) */
    /** @{ */

    /** Instance is up (serving). */
    bool isUp() const { return up; }

    /** Instance is draining toward a planned decommission. */
    bool isDraining() const { return draining; }

    /**
     * Take the instance down. Every hosted request that holds GPU KV
     * (or no KV yet) is detached and appended to @p orphans for the
     * cluster's failover re-placement; when @p preserve_cpu_kv is set,
     * CPU-offloaded requests keep their host-DRAM KV and stay hosted,
     * resuming after recover(). The in-flight iteration (if any) is
     * abandoned: its completion event is invalidated by a generation
     * bump, and the partial step's wall time stays booked as executed
     * (the GPU really did spend it).
     */
    void crash(bool preserve_cpu_kv,
               std::vector<workload::Request*>& orphans);

    /** Rejoin the fleet after MTTR; resumes any preserved work. */
    void recover();

    /** Enter/leave the draining state (placement routes away; the
     *  engine keeps executing until the drain deadline). */
    void setDraining(bool on);

    /** Straggler window: multiply every iteration's latency by
     *  @p scale (1.0 restores full speed). */
    void setPerfScale(double scale);

    /** @} */

    /** Ensure an iteration is scheduled if there is runnable work. */
    void kick();

    /** A step is executing right now. Deadline enforcement must not
     *  detach batch members mid-step; the cluster checks this and
     *  defers through noteDeadlineExpired(). */
    bool hasStepInFlight() const { return stepInFlight; }

    /** @name SLO classes (ROADMAP item 4) */
    /** @{ */

    /**
     * Wire the cluster's SLO-class config (copied; call before any
     * request is added). With the default disabled config every
     * per-class path collapses to the global SloConfig targets.
     */
    void setSloClassConfig(const qoe::SloClassConfig& c)
    {
        monitor.setClassConfig(c);
    }

    /**
     * Demote a hosted request to best-effort after a deadline expiry:
     * re-rank it behind every real class (remove/re-add re-seeds the
     * scheduler queues) and re-key its SLO-heap entry against Batch
     * targets. Only valid at a safe boundary (no step in flight).
     */
    void demoteBestEffort(workload::Request* req);

    /**
     * A hosted request's deadline fired while a step is in flight:
     * record it for enforcement at the iteration boundary, where
     * detaching cannot corrupt the executing batch. The boundary
     * re-checks liveness/residency and then invokes
     * callbacks.onDeadlineExpired.
     */
    void noteDeadlineExpired(workload::Request* req);

    /** @} */

    /** Paper t_i: all answering requests are keeping the user's
     *  expected pace (SloMonitor::answeringSloOk). */
    bool answeringSloOk(Time now) const;

    /** Monitor snapshot for the placement algorithms. */
    core::InstanceSnapshot snapshot(Time now) const;

    /**
     * Wire the cluster's shared length predictor (not owned; may be
     * nullptr). Forwards to the intra-instance scheduler.
     *
     * @param predictive_snapshots Also fill the snapshot's
     *        predicted-KV-footprint signal — O(hosted) predictor
     *        calls per snapshot, so the Cluster enables it only when
     *        the placement policy actually routes on it.
     */
    void setPredictor(const predict::LengthPredictor* p,
                      bool predictive_snapshots)
    {
        predictor = predictive_snapshots ? p : nullptr;
        sched->setPredictor(p);
    }

    const model::KvPool& pool() const { return kvPool; }
    core::IntraScheduler& scheduler() { return *sched; }
    const core::IntraScheduler& scheduler() const { return *sched; }
    model::Link& pcieLink() { return pcie; }

    /** Full scheduler plan builds (non-reused boundaries, including
     *  boundaries whose plan came back idle); an input of the
     *  cluster's "cluster.plan.builds" rollup. Every other engine
     *  counter is read through the stat registry (registerStats). */
    std::uint64_t numPlanBuilds() const { return planBuilds; }
    /** SLO-monitor re-keys: stored-key writes plus offset bumps; an
     *  input of the "cluster.slo.rekeys" rollup. */
    std::uint64_t numSloHeapRekeys() const { return monitor.numRekeys(); }

    /**
     * Wire the cluster's trace sink (not owned; nullptr disables).
     * Recording is observation-only: it never touches scheduler or
     * engine state, so traced and untraced runs are byte-identical.
     */
    void setTraceSink(obs::TraceSink* sink) { trace = sink; }

    /**
     * Register this instance's counters/gauges on @p reg under
     * @p prefix (e.g. "instance.3"): engine counters, plan fast-path
     * counters, SLO-heap rekeys, KV pool gauges, and the decode
     * batch-size distribution. Registration is non-owning
     * pointers/functors — the hot path keeps its bare member
     * increments.
     */
    void registerStats(obs::StatRegistry& reg,
                       const std::string& prefix);

    /** Debug hook (cluster view audits): SloMonitor::verify over the
     *  hosted set at @p now. */
    void verifySloHeap(Time now) const;

  private:
    void startIteration();
    void completeIteration(Time step_start);

    /** Shared admission body (exec/home/accrual/scheduler/SLO heap). */
    void admit(workload::Request* req);

    /**
     * PASCAL_FORCE_ACCRUE debug walk: recompute every hosted
     * request's standing accrual bucket the way the old eager
     * accrueAll derived it and panic if the lazily maintained stamp
     * disagrees. Settlement itself stays lazy in both modes (shared
     * arithmetic => byte-identical RunResults); this walk proves the
     * restamp points catch every bucket change.
     *
     * @param prefill_iteration True if the iteration ran prefills:
     *        residents pausing for a prefill pass are normal
     *        continuous-batching pipeline overhead (booked as
     *        executed), whereas residents excluded from a decode batch
     *        were preempted by the scheduling policy.
     */
    void verifyAccrualStamps(bool prefill_iteration) const;

    InstanceId instanceId;
    sim::Simulator& sim;
    const model::PerfModel& perf;
    std::unique_ptr<core::IntraScheduler> sched;
    model::KvPool kvPool;

    InstanceCallbacks callbacks;
    model::Link pcie;
    const predict::LengthPredictor* predictor = nullptr;

    /** PASCAL_FORCE_ACCRUE / SchedLimits::forceAccrue: run the eager
     *  stamp-verification walk every iteration. */
    bool verifyAccrual = false;

    bool stepInFlight = false;

    /** Fault layer: false while crashed/drained-out (the engine idles
     *  and placement routes away). */
    bool up = true;

    /** Fault layer: planned decommission in its grace window. */
    bool draining = false;

    /** Fault layer: straggler latency multiplier (1.0 = full speed;
     *  multiplying by 1.0 is an exact IEEE no-op, so fault-off runs
     *  are byte-identical). */
    double perfScale = 1.0;

    /** Bumped by crash() so the abandoned step's completion event
     *  (which carries the generation it was scheduled under) becomes
     *  a no-op instead of completing into post-crash state. */
    std::uint64_t crashGen = 0;

    /** crash() scratch: hosted-set copy walked while detach mutates
     *  the live set. */
    std::vector<workload::Request*> scratchHosted;

    /** Plan of the iteration currently executing. Held here (not in
     *  the continuation closure) so the per-iteration event callback
     *  stays small enough for EventCallback's inline storage — the
     *  steady-state event loop then never heap-allocates. In the
     *  decode-only steady state the scheduler's reusePlan() lets the
     *  next iteration run this plan verbatim, so the buffers are
     *  never even rebuilt. */
    core::IterationPlan inflight;

    /**
     * Iterations started; also the epoch stamp for batch membership:
     * startIteration bumps it and stamps every running request's
     * runEpoch, so the "did this request run in the completed step?"
     * test is one integer compare instead of a hash-set lookup (and
     * there is no per-iteration set to clear). Requests arriving or
     * migrating in get their stamp reset so a stale epoch from a
     * previous host can never collide.
     */
    std::uint64_t iterations = 0;
    std::uint64_t decodeTokens = 0;
    std::uint64_t prefills = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t planReuses = 0;
    std::uint64_t planBuilds = 0;

    /** Cluster-owned trace sink (may be null — the common case). */
    obs::TraceSink* trace = nullptr;

    /** Registry-owned decode batch-size distribution (null until
     *  registerStats wires it). */
    stats::Summary* batchDist = nullptr;

    /** Run the deferred-deadline list through the cluster's policy at
     *  the iteration boundary (completeIteration, after the step's
     *  effects settle and stepInFlight clears). */
    void drainDeadlineDeferred();

    /** Hosted requests whose deadline fired mid-step, awaiting the
     *  boundary (cleared by crash(): orphans re-enter through the
     *  retry guards instead). */
    std::vector<workload::Request*> deadlineDeferred;

    /** True while drainDeadlineDeferred() walks the parked list.
     *  Suppresses kick(): a step started mid-drain would force the
     *  remaining entries to re-park into the vector being walked
     *  (unbounded growth); completeIteration() starts the next
     *  iteration itself once every expiry has settled. */
    bool drainingDeadlines = false;

    /** The t_i monitor; the engine reports every event that moves an
     *  answering request's membership or flip bound. */
    SloMonitor monitor;
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_INSTANCE_HH
