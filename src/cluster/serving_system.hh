/**
 * @file
 * ServingSystem: the library's top-level facade.
 *
 * Construct it from a SystemConfig, hand it a Trace, and it runs the
 * whole discrete-event simulation and returns scored metrics. Each
 * run() builds a fresh simulator and cluster, so one ServingSystem can
 * evaluate many traces (and runs are independent and reproducible).
 */

#ifndef PASCAL_CLUSTER_SERVING_SYSTEM_HH
#define PASCAL_CLUSTER_SERVING_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/system_config.hh"
#include "src/obs/stat_registry.hh"
#include "src/obs/streaming_metrics.hh"
#include "src/qoe/metrics.hh"
#include "src/workload/trace.hh"

namespace pascal
{
namespace cluster
{

/** Everything a harness needs from one simulated run. */
struct RunResult
{
    std::vector<qoe::RequestMetrics> perRequest;
    qoe::AggregateMetrics aggregate;

    /** Largest GPU KV occupancy on any instance (tokens); feeds the
     *  Section III "50 % of oracle" capacity recipe. */
    TokenCount peakGpuKvTokens = 0;

    /** Per-instance KV capacity the run used (tokens). */
    TokenCount kvCapacityTokens = 0;

    std::size_t numUnfinished = 0;

    /** @name Counters: views of statsDump
     *
     * Each counter below (and each ClassOutcome count) is copied out
     * of the stat registry's dump through one name table
     * (run_context.cc); the registry is the only record. Counts with
     * no field here — iterations, plan builds, swaps, drains, link
     * failures, migrations started ("cluster.migrations") — are read
     * from statsDump directly; aggregate.totalMigrations counts the
     * finished requests' landed migrations.
     */
    /** @{ */

    /* Failure accounting (src/fault/; all zero — and goodput 1.0 with
     * an empty trace — when the fault layer is off). */
    std::uint64_t numCrashes = 0;
    std::uint64_t numRetries = 0;
    std::uint64_t numShed = 0;
    /** All terminal failures (retry-budget exhaustion + shed +
     *  deadline expiry). */
    std::uint64_t numTerminalFailures = 0;
    /** @} */

    /**
     * Fraction of submitted requests that completed (emitted every
     * token): numFinished / numRequests, 1.0 for an empty trace.
     *
     * Denominator semantics (pinned by the GoodputSemantics tests in
     * tests/test_slo_classes.cc):
     *  - The denominator counts every submitted request — including
     *    requests shed at admission (global fault-layer floor or
     *    class-aware overload control), requests terminally failed
     *    (retry budget or deadline expiry), and requests still live
     *    when the run stopped.
     *  - The numerator counts only fully-completed requests. A shed
     *    or terminally-failed request is Done for lifecycle purposes
     *    but never counts as finished; a demoted best-effort request
     *    that completes DOES count.
     * So goodputFraction + numUnfinished/numRequests == 1 exactly,
     * and numUnfinished == numTerminalFailures when nothing was cut
     * off by the horizon (numShed is a subset of terminal failures,
     * not an extra term).
     */
    double goodputFraction = 1.0;

    /** @name SLO-class outcomes (tentpole; all rows zero — and
     *  per-class goodput 1.0 — when cfg.sloClasses is disabled) */
    /** @{ */

    /** Lifecycle counts for one service class. Totality invariant
     *  (checked by bench_chaos_goodput --check-invariants):
     *  submitted == completed + shed + deadlineFailed + retryFailed
     *  + still-live-at-horizon. demoted tracks demote-on-expiry
     *  transitions and overlaps the other outcome buckets. */
    struct ClassOutcome
    {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t shed = 0;
        std::uint64_t deadlineFailed = 0;
        std::uint64_t retryFailed = 0;
        std::uint64_t demoted = 0;
        /** completed / submitted; 1.0 when the class saw no work. */
        double goodputFraction = 1.0;
    };
    std::array<ClassOutcome, workload::kNumSloClasses> perClass{};

    /** Per-class latency/QoE rollups over perRequest (left
     *  zero-initialized in streaming mode, which keeps no rows). */
    std::array<qoe::ClassAggregate, workload::kNumSloClasses>
        classAggregates{};
    /** @} */

    /** End-to-end latency of every landed KV migration (Section V-C):
     *  the rows' kvTransferLatencies concatenated in row order
     *  (aggregate.p99KvTransferLatency ranks the finished rows' ones),
     *  so each row holds exactly migrationCount entries. A failover
     *  restore is not a migration and is not in it, nor is a transfer
     *  a fault or an expired deadline aborted. Empty in streaming
     *  mode, like perRequest (the sketch carries the p99). */
    std::vector<double> kvTransferLatencies;

    std::string schedulerName;
    std::string placementName;
    std::string predictorName; //!< "none" when running reactively.

    /** @name Telemetry (src/obs/; excluded from byte-identity
     *  comparisons, so force-recompute twins stay comparable) */
    /** @{ */

    /** Generic snapshot of the cluster's stat registry (always
     *  populated — the registry is costless). */
    obs::StatDump statsDump;

    /** Chrome/Perfetto trace-event JSON; "" unless
     *  SystemConfig::telemetry.traceEnabled. */
    std::string traceJson;

    /** Streaming-sketch rollup; non-null only in streaming mode
     *  (where perRequest stays empty and aggregate comes from the
     *  sketches). */
    std::shared_ptr<const obs::StreamingMetrics> streaming;

    /** @} */
};

/** Facade running complete serving simulations. */
class ServingSystem
{
  public:
    /** @param cfg Validated deployment configuration (copied). */
    explicit ServingSystem(SystemConfig cfg);

    /** Simulate @p trace to completion and score it. */
    RunResult run(const workload::Trace& trace) const;

    const SystemConfig& config() const { return cfg; }

  private:
    SystemConfig cfg;
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_SERVING_SYSTEM_HH
