/**
 * @file
 * Telemetry knobs carried by SystemConfig.
 *
 * Kept in its own dependency-free header so src/cluster can embed it
 * without pulling the trace machinery into every config consumer.
 * Tracing defaults off: a default-configured run pays only the plain
 * counter increments the engine always had, and its RunResult is
 * byte-identical whether or not tracing is enabled (telemetry is pure
 * observation — the force-matrix and on/off grid tests pin this).
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
};

} // namespace obs
} // namespace pascal

#endif // PASCAL_OBS_TELEMETRY_CONFIG_HH
