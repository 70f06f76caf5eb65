/**
 * @file
 * Layer replays: each drives one real component through its public
 * functions at the operating point a workload's traced run observed
 * (pending-event depth, hosted and live-KV counts, cluster views,
 * completion order), and reports host nanoseconds per operation.
 *
 * The replays run the library's own EventQueue, schedulers, placement
 * policies, KvPool and predictors; nothing here re-implements a layer.
 * The plan replay needs a stand-in for the instance engine to execute
 * plans between boundaries, and it applies them the way
 * cluster::Instance does, minus timing and SLO monitoring.
 */

#ifndef PASCAL_PERFBENCH_REPLAYS_HH
#define PASCAL_PERFBENCH_REPLAYS_HH

#include <cstdint>
#include <vector>

#include "src/cluster/serving_system.hh"
#include "src/cluster/system_config.hh"
#include "src/core/cluster_view.hh"
#include "src/workload/trace.hh"

namespace pascal
{
namespace perfbench
{

/** Operating point sampled at evenly spaced virtual times of a run. */
struct Probe
{
    double meanPendingEvents = 0.0;
    double meanHosted = 0.0;  //!< Per instance.
    double meanLiveKv = 0.0;  //!< KV allocations per instance.
    std::vector<core::ClusterView> views;
};

/**
 * Re-run @p trace under @p cfg, stopping @p samples times at evenly
 * spaced virtual times up to @p makespan to sample the operating
 * point. @p result receives the stepped run's result, which must
 * equal the unstepped run's.
 */
Probe probeRun(const cluster::SystemConfig& cfg,
               const workload::Trace& trace, double makespan, int samples,
               cluster::RunResult& result);

/** EventQueue hold model at @p depth pending events: ns per
 *  pop + schedule pair. */
double replayEventQueue(std::size_t depth, std::uint64_t seed);

struct PlanReplay
{
    double buildNs = 0.0; //!< Mean ns per full buildPlan walk.
    double reuseNs = 0.0; //!< Mean ns per accepted reusePlan.
};

/** buildPlan/reusePlan of the workload's scheduler over @p hosted
 *  real Requests drawn from @p trace on one instance's KV pool. */
PlanReplay replayPlan(const cluster::SystemConfig& cfg,
                      TokenCount kv_capacity,
                      const workload::Trace& trace, std::size_t hosted);

/** placeNew + placeTransition of the workload's placement policy on
 *  the sampled views: ns per decision. */
double replayPlacement(const cluster::SystemConfig& cfg,
                       const std::vector<core::ClusterView>& views,
                       const workload::Trace& trace);

/** KvPool alloc/grow/release with @p live allocations: ns per op. */
double replayKvPool(TokenCount kv_capacity, TokenCount block,
                    std::size_t live, const workload::Trace& trace);

struct PredictReplay
{
    double queryNs = 0.0;
    double observeNs = 0.0;
    /** Second-half ns/query over first-half ns/query. */
    double queryGrowth = 0.0;
};

/** The predictor fed @p trace's requests in @p completion_order (trace
 *  indices, at most the first 2500), queried between completions. */
PredictReplay replayPredictor(const predict::PredictorConfig& pc,
                              const workload::Trace& trace,
                              const std::vector<std::size_t>&
                                  completion_order);

} // namespace perfbench
} // namespace pascal

#endif // PASCAL_PERFBENCH_REPLAYS_HH
