/**
 * @file
 * Streaming metric sketch tests: LogHistogram unit accuracy, the
 * empty-and-unfinished guard rails, and the end-to-end contract —
 * streaming mode reproduces the exact aggregate's means and maxima
 * bit-for-bit and its percentiles within 1% relative error, while
 * keeping no per-request rows (perRequest stays empty).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/common/stats.hh"
#include "src/obs/streaming_metrics.hh"
#include "src/workload/generator.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SystemConfig;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using StreamingEndToEnd = QuietLogs;

double
relErr(double estimate, double exact)
{
    if (exact == 0.0)
        return std::abs(estimate);
    return std::abs(estimate - exact) / std::abs(exact);
}

TEST(LogHistogram, QuantilesWithinAdvertisedRelativeError)
{
    obs::LogHistogram hist;
    // Three decades of deterministic samples.
    std::vector<double> values;
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        double v = 0.01 * std::pow(1000.0, rng.uniformReal(0.0, 1.0));
        values.push_back(v);
        hist.add(v);
    }
    EXPECT_EQ(hist.count(), values.size());
    EXPECT_LT(hist.relativeError(), 0.01);

    std::sort(values.begin(), values.end());
    for (double p : {50.0, 90.0, 95.0, 99.0}) {
        const double exact = stats::percentileOfSorted(values, p);
        EXPECT_LT(relErr(hist.quantile(p), exact),
                  2.0 * hist.relativeError() + 1e-3)
            << "p" << p;
    }
    // Memory stays a few thousand slots for three decades.
    EXPECT_LT(hist.numBuckets(), 4000u);
}

TEST(LogHistogram, ZeroAndNegativeSamplesLandInTheZeroBucket)
{
    obs::LogHistogram hist;
    hist.add(0.0);
    hist.add(-1.0);
    hist.add(1e-12); // Below minValue.
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_DOUBLE_EQ(hist.quantile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.quantile(99.0), 0.0);

    // A mixed stream keeps zeros at the low quantiles only.
    for (int i = 0; i < 97; ++i)
        hist.add(10.0);
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 0.0);
    EXPECT_LT(relErr(hist.quantile(99.0), 10.0), 0.01);
}

TEST(LogHistogram, EmptyHistogramReportsZero)
{
    obs::LogHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.quantile(50.0), 0.0);
}

TEST(StreamingMetrics, EmptyAndAllUnfinishedStayZeroedAndFinite)
{
    obs::StreamingMetrics empty;
    auto agg = empty.aggregate();
    EXPECT_EQ(agg.numRequests, 0u);
    EXPECT_EQ(agg.numFinished, 0u);
    EXPECT_DOUBLE_EQ(agg.meanTtft, 0.0);
    EXPECT_DOUBLE_EQ(agg.sloViolationRate, 0.0);
    EXPECT_DOUBLE_EQ(agg.throughputTokensPerSec, 0.0);

    // Unfinished rows contribute presence only — no NaNs from the
    // finished==0 divide guards.
    obs::StreamingMetrics unfinished;
    qoe::RequestMetrics row;
    row.arrival = 1.0;
    row.finished = false;
    unfinished.fold(row);
    agg = unfinished.aggregate();
    EXPECT_EQ(agg.numRequests, 1u);
    EXPECT_EQ(agg.numFinished, 0u);
    EXPECT_FALSE(std::isnan(agg.meanTtft));
    EXPECT_DOUBLE_EQ(agg.meanTtft, 0.0);
    EXPECT_DOUBLE_EQ(agg.p99Ttft, 0.0);
    EXPECT_DOUBLE_EQ(agg.sloViolationRate, 0.0);
}

/** ~2000-request trace so the tail percentiles have real support. */
workload::Trace
bigTrace(std::uint64_t seed)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {200.0, 0.7, 24, 900};
    profile.answering = {90.0, 0.6, 12, 400};
    return workload::generateTrace(profile, 2000, 30.0, rng);
}

SystemConfig
streamConfig()
{
    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Pascal;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = 4;
    cfg.gpuKvCapacityTokens = 16384;
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 600;
    return cfg;
}

TEST_F(StreamingEndToEnd, SketchAggregateMatchesExactWithinTolerance)
{
    auto trace = bigTrace(2026);
    SystemConfig cfg = streamConfig();
    auto exact = cluster::RunContext::execute(cfg, trace);
    cfg.telemetry.streamingMetrics = true;
    auto streamed = cluster::RunContext::execute(cfg, trace);

    // Streaming mode stores no rows — that is the point.
    EXPECT_TRUE(streamed.perRequest.empty());
    ASSERT_NE(streamed.streaming, nullptr);
    ASSERT_FALSE(exact.perRequest.empty());

    const auto& e = exact.aggregate;
    const auto& s = streamed.aggregate;

    // Exact fields are bit-identical: same fold order, same Welford
    // arithmetic, same integer counts.
    EXPECT_EQ(s.numRequests, e.numRequests);
    EXPECT_EQ(s.numFinished, e.numFinished);
    EXPECT_DOUBLE_EQ(s.makespan, e.makespan);
    EXPECT_DOUBLE_EQ(s.throughputTokensPerSec,
                     e.throughputTokensPerSec);
    EXPECT_DOUBLE_EQ(s.meanTtft, e.meanTtft);
    EXPECT_DOUBLE_EQ(s.maxTtft, e.maxTtft);
    EXPECT_DOUBLE_EQ(s.meanQoe, e.meanQoe);
    EXPECT_DOUBLE_EQ(s.meanE2eLatency, e.meanE2eLatency);
    EXPECT_DOUBLE_EQ(s.meanAnsweringLatency, e.meanAnsweringLatency);
    EXPECT_DOUBLE_EQ(s.sloViolationRate, e.sloViolationRate);
    EXPECT_EQ(s.totalMigrations, e.totalMigrations);

    // Sketch percentiles: within 1% relative error (tier-1 pin).
    EXPECT_LT(relErr(s.p50Ttft, e.p50Ttft), 0.01);
    EXPECT_LT(relErr(s.p99Ttft, e.p99Ttft), 0.01);
    EXPECT_LT(relErr(s.p50E2eLatency, e.p50E2eLatency), 0.01);
    EXPECT_LT(relErr(s.p99E2eLatency, e.p99E2eLatency), 0.01);

    // p95 TTFT via the family accessor against the exact sample set.
    std::vector<double> ttfts;
    for (const auto& row : exact.perRequest)
        if (row.finished)
            ttfts.push_back(row.ttft);
    std::sort(ttfts.begin(), ttfts.end());
    const double exact_p95 = stats::percentileOfSorted(ttfts, 95.0);
    EXPECT_LT(relErr(streamed.streaming->ttft().quantile(95.0),
                     exact_p95),
              0.01);
}

TEST_F(StreamingEndToEnd, StreamingModeIsStable)
{
    auto trace = bigTrace(77);
    SystemConfig cfg = streamConfig();
    cfg.telemetry.streamingMetrics = true;

    cluster::RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    EXPECT_TRUE(result.perRequest.empty());
    EXPECT_GT(result.aggregate.numFinished, 0u);

    // Same seed, same sketch bytes.
    auto again = cluster::RunContext::execute(cfg, trace);
    EXPECT_DOUBLE_EQ(again.aggregate.p99Ttft,
                     result.aggregate.p99Ttft);
    EXPECT_DOUBLE_EQ(again.aggregate.meanTtft,
                     result.aggregate.meanTtft);
}

TEST_F(StreamingEndToEnd, InFlightRequestsFoldAtResultTime)
{
    // Cut the run short so requests are still in flight: the rollup
    // must settle and fold them exactly like the per-request rows.
    auto trace = bigTrace(13);
    SystemConfig cfg = streamConfig();
    auto run_until = [&](bool streaming) {
        cfg.telemetry.streamingMetrics = streaming;
        cluster::RunContext ctx(cfg);
        ctx.submit(trace);
        ctx.run(20.0); // Mid-flight horizon.
        return ctx.result();
    };
    auto exact = run_until(false);
    auto streamed = run_until(true);
    EXPECT_EQ(streamed.aggregate.numRequests,
              exact.aggregate.numRequests);
    EXPECT_EQ(streamed.aggregate.numFinished,
              exact.aggregate.numFinished);
    EXPECT_DOUBLE_EQ(streamed.aggregate.meanTtft,
                     exact.aggregate.meanTtft);
    EXPECT_DOUBLE_EQ(streamed.aggregate.sloViolationRate,
                     exact.aggregate.sloViolationRate);
}

} // namespace
