/**
 * @file
 * Top-level configuration of a simulated serving deployment, plus
 * factories mapping enum knobs to scheduler/placement objects.
 */

#ifndef PASCAL_CLUSTER_SYSTEM_CONFIG_HH
#define PASCAL_CLUSTER_SYSTEM_CONFIG_HH

#include <memory>
#include <string>

#include "src/core/intra_scheduler.hh"
#include "src/core/placement.hh"
#include "src/fault/fault_config.hh"
#include "src/model/hardware_config.hh"
#include "src/model/model_config.hh"
#include "src/obs/telemetry_config.hh"
#include "src/predict/predictor.hh"
#include "src/qoe/slo.hh"

namespace pascal
{
namespace cluster
{

/** Intra-instance scheduling policy selector. */
enum class SchedulerType
{
    Fcfs,       //!< vLLM default (Section II-C).
    Rr,         //!< Token-quantum round robin.
    Pascal,     //!< Hierarchical phase-aware queues (Section IV-C).
    Srpt,       //!< Speculative shortest-remaining-first (needs a
                //!< predictor).
    PascalSpec, //!< PASCAL + predictive demotion and predicted-length
                //!< tie-breaking (needs a predictor).
};

/** Instance-level placement policy selector. */
enum class PlacementType
{
    Baseline,          //!< Min-KV routing, never migrates.
    Pascal,            //!< Algorithms 1+2 with adaptive migration.
    PascalNonAdaptive, //!< Always follow Algorithm 2 (Section V-D).
    PascalNoMigration, //!< Pin to the Algorithm-1 instance (V-D).
    PascalPredictive,  //!< Route on predicted KV footprint (needs a
                       //!< predictor).
};

/** Everything needed to build a ServingSystem. */
struct SystemConfig
{
    model::ModelConfig model = model::ModelConfig::deepseekR1Distill32B();
    model::HardwareConfig hardware = model::HardwareConfig::h100();

    int numInstances = 8; //!< The paper's cluster size (Section V-A).

    SchedulerType scheduler = SchedulerType::Pascal;
    PlacementType placement = PlacementType::Pascal;

    core::SchedLimits limits; //!< Quantum 500, demotion 5000, caps.
    qoe::SloConfig slo;

    /**
     * Multi-tenant SLO-class layer (src/qoe/slo.hh): per-class
     * TTFT/TPOT/TTFAT targets, relative deadlines enforced as real
     * timeouts, and class-aware admission/overload control. Disabled
     * by default; a disabled class layer leaves RunResults
     * byte-identical to a build without it (every per-request class
     * field stays at its zero default, so each scheduler's class-rank
     * comparator level is inert).
     */
    qoe::SloClassConfig sloClasses;

    /**
     * Length-prediction knobs (src/predict/). Default: None — the
     * paper's reactive behaviour. Required (validate() enforces it)
     * whenever the scheduler is Srpt/PascalSpec or the placement is
     * PascalPredictive. One predictor instance is shared by the whole
     * cluster and learns from every instance's completions.
     */
    predict::PredictorConfig predictor;

    /**
     * Explicit per-instance GPU KV capacity in tokens; 0 derives it
     * from the hardware/model configs (memory left after weights).
     */
    TokenCount gpuKvCapacityTokens = 0;

    /** Paged-KV block size in tokens (vLLM default: 16). 1 gives
     *  exact token-granular accounting. */
    TokenCount kvBlockSizeTokens = 16;

    /** Simulation safety horizon in seconds. */
    Time maxSimTime = 1e7;

    /**
     * Observability knobs (src/obs/): Perfetto trace recording. The
     * stat registry is always built — it is non-owning pointers over
     * counters the cluster maintains anyway. Tracing is opt-in and
     * never perturbs scheduling (RunResults are byte-identical either
     * way).
     */
    obs::TelemetryConfig telemetry;

    /**
     * Fault-injection knobs (src/fault/): seeded crash/drain/
     * straggler/link-failure schedules plus the failover policy
     * (retry backoff, budget, CPU-KV preservation, shed floor).
     * Disabled by default; a disabled fault layer leaves RunResults
     * byte-identical to a build without it.
     */
    fault::FaultConfig fault;

    void validate() const;

    std::string schedulerName() const;
    std::string placementName() const;
    std::string predictorName() const { return predictor.name(); }

    /** Round @p tokens up to a multiple of @p block (validate()
     *  rejects explicit capacities that are not). */
    static TokenCount
    alignKvCapacity(TokenCount tokens, TokenCount block)
    {
        if (block <= 1 || tokens <= 0)
            return tokens;
        return ((tokens + block - 1) / block) * block;
    }

    /** Baseline deployment: FCFS or RR with min-KV routing. */
    static SystemConfig baseline(SchedulerType sched,
                                 int num_instances = 8);

    /** Full PASCAL deployment. */
    static SystemConfig pascal(int num_instances = 8);

    /**
     * Speculative deployment: @p sched (Srpt or PascalSpec) over
     * predictive placement, with @p pred supplying the length
     * estimates.
     */
    static SystemConfig speculative(SchedulerType sched,
                                    predict::PredictorConfig pred,
                                    int num_instances = 8);
};

/** Build the intra-instance scheduler for one instance. */
std::unique_ptr<core::IntraScheduler>
makeScheduler(SchedulerType type, const core::SchedLimits& limits);

/** Build the cluster-level placement policy. */
std::unique_ptr<core::Placement> makePlacement(PlacementType type);

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_SYSTEM_CONFIG_HH
