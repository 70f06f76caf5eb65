/**
 * @file
 * Streaming metric sketches: bounded-memory replacement for the
 * per-request RequestMetrics vector.
 *
 * With --streaming-metrics the cluster folds each request's metrics
 * into fixed-size accumulators the moment its arena chunk retires,
 * instead of growing a RunResult::perRequest row per request. Chunk
 * recycling then fully bounds simulation memory: a 10M-request soak
 * holds only live requests plus these sketches.
 *
 * Per metric family (TTFT, E2E, answering, blocking, QoE, KV
 * transfer):
 *   - stats::Summary — exact count/mean/min/max/stddev (Welford);
 *     means and maxima in the aggregate are exact, not estimates.
 *   - LogHistogram — log-spaced buckets (gamma = 1.005). Quantiles
 *     report the geometric bucket center, so the relative error is
 *     at most sqrt(gamma) - 1 ~= 0.25%, well inside the 1% tolerance
 *     the tier-1 test pins for p50/p95/p99 TTFT.
 *
 * Folding is deterministic: requests retire in simulation order, and
 * every accumulator is order-insensitive for the values it reports
 * exactly (count/mean via Welford, min/max) and order-dependent only
 * in ways the same seed reproduces bit-for-bit.
 */

#ifndef PASCAL_OBS_STREAMING_METRICS_HH
#define PASCAL_OBS_STREAMING_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/stats.hh"
#include "src/common/types.hh"
#include "src/qoe/metrics.hh"

namespace pascal
{
namespace obs
{

/**
 * Log-spaced histogram for positive samples.
 *
 * Bucket i covers [minValue * gamma^i, minValue * gamma^(i+1));
 * samples below minValue (including zero — blocking latency is often
 * exactly 0) land in a dedicated zero bucket reported as 0.0. The
 * bucket array grows lazily to span only the index range actually
 * hit, so a family whose samples cover three decades costs a few
 * thousand uint64 slots.
 */
class LogHistogram
{
  public:
    /** @param gamma Bucket growth ratio (> 1).
     *  @param min_value Smallest resolvable sample (> 0). */
    explicit LogHistogram(double gamma = 1.005,
                          double min_value = 1e-9);

    /** Fold one sample (negatives count as zero). */
    void add(double x);

    /** Samples folded so far. */
    std::uint64_t count() const { return total; }

    /**
     * Quantile estimate at percentile @p p in [0, 100] via
     * nearest-rank over bucket counts; returns the geometric center
     * of the selected bucket (0 for an empty histogram).
     */
    double quantile(double p) const;

    /** Worst-case relative error of quantile(): sqrt(gamma) - 1. */
    double relativeError() const;

    /** Allocated bucket slots (memory-bound diagnostics). */
    std::size_t numBuckets() const { return buckets.size(); }

  private:
    std::int64_t bucketIndex(double x) const;

    double gammaVal;
    double minValue;
    double invLogGamma;
    std::uint64_t zeroCount = 0;
    std::uint64_t total = 0;
    /** buckets[k] counts bucket index baseIndex + k. */
    std::vector<std::uint64_t> buckets;
    std::int64_t baseIndex = 0;
};

/** One metric family: exact moments plus a quantile histogram. */
class MetricFamily
{
  public:
    /** Fold one sample into every accumulator. */
    void add(double x);

    std::size_t count() const { return moments.count(); }
    double mean() const { return moments.mean(); }
    double min() const { return moments.min(); }
    double max() const { return moments.max(); }
    double stddev() const { return moments.stddev(); }

    /** Histogram quantile at percentile @p p in [0, 100]. */
    double quantile(double p) const { return hist.quantile(p); }

    const LogHistogram& histogram() const { return hist; }

  private:
    stats::Summary moments;
    LogHistogram hist;
};

/**
 * Bounded-memory aggregate over a run's requests. Copyable: the
 * cluster snapshots it at result time and folds still-live requests
 * into the copy without disturbing the running accumulation.
 */
class StreamingMetrics
{
  public:
    /** Fold one request's metrics (unfinished requests contribute
     *  only arrival/count, mirroring qoe::aggregateMetrics). */
    void fold(const qoe::RequestMetrics& m);

    /** Render the same rollup qoe::aggregateMetrics computes from
     *  the full per-request vector, with sketch percentiles. */
    qoe::AggregateMetrics aggregate() const;

    std::size_t numRequests() const { return requests; }
    std::size_t numFinished() const { return finished; }

    const MetricFamily& ttft() const { return ttftFam; }
    const MetricFamily& e2e() const { return e2eFam; }
    const MetricFamily& answering() const { return answeringFam; }
    const MetricFamily& blocking() const { return blockingFam; }
    const MetricFamily& qoe() const { return qoeFam; }
    const MetricFamily& kvTransfer() const { return kvFam; }

  private:
    MetricFamily ttftFam;
    MetricFamily e2eFam;
    MetricFamily answeringFam;
    MetricFamily blockingFam;
    MetricFamily qoeFam;
    MetricFamily kvFam;

    std::size_t requests = 0;
    std::size_t finished = 0;
    std::size_t violations = 0;
    Time firstArrival = kTimeInfinity;
    Time lastFinish = 0.0;
    TokenCount totalTokens = 0;
    int migrations = 0;
};

} // namespace obs
} // namespace pascal

#endif // PASCAL_OBS_STREAMING_METRICS_HH
