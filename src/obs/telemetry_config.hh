/**
 * @file
 * Telemetry knobs carried by SystemConfig.
 *
 * Kept in its own dependency-free header so src/cluster can embed it
 * without pulling the trace/streaming machinery into every config
 * consumer. All knobs default off: a default-configured run pays only
 * the plain counter increments the engine always had, and its
 * RunResult is byte-identical whether or not telemetry is enabled
 * (telemetry is pure observation — the force-matrix and on/off grid
 * tests pin this).
 */

#ifndef PASCAL_OBS_TELEMETRY_CONFIG_HH
#define PASCAL_OBS_TELEMETRY_CONFIG_HH

#include <cstddef>

namespace pascal
{
namespace obs
{

/** Per-run observability configuration. */
struct TelemetryConfig
{
    /**
     * Record Chrome/Perfetto trace events (plan boundaries, phase
     * transitions, migrations, admissions/evictions, SLO verdict
     * flips) into a bounded ring buffer, stamped with virtual time so
     * two runs of the same seed produce byte-identical traces.
     */
    bool traceEnabled = false;

    /** Ring capacity in events; oldest events are overwritten once
     *  full (export drops orphaned async ends and closes still-open
     *  spans so the emitted JSON always validates). */
    std::size_t traceCapacity = 1u << 18;

    /**
     * Fold each request's RequestMetrics row into streaming Welford
     * moments + quantile sketches instead of storing it, so a run's
     * result holds no per-request rows. RunResult::perRequest stays
     * empty; means/counts in the aggregate are exact and the
     * reported percentiles carry a <= 0.5 % relative-error guarantee
     * from the log-bucketed sketch.
     */
    bool streamingMetrics = false;
};

} // namespace obs
} // namespace pascal

#endif // PASCAL_OBS_TELEMETRY_CONFIG_HH
