/**
 * @file
 * Telemetry determinism tests: telemetry is a pure observer. Traced
 * runs stay byte-identical to telemetry-off runs across the whole
 * 2^3 force-recompute matrix and the scheduler x predictor grid, a
 * 4-thread SweepRunner dumps/traces byte-identically to a serial one,
 * and streaming mode leaves every simulation-level field untouched.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/sweep_runner.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"
#include "tests/run_result_util.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SweepRunner;
using cluster::SystemConfig;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using TelemetryDeterminism = QuietLogs;

workload::Trace
churnTrace(std::uint64_t seed, int n = 120)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {300.0, 0.8, 32, 1500};
    profile.answering = {120.0, 0.7, 16, 600};
    return workload::generateTrace(profile, n, 12.0, rng);
}

SystemConfig
constrained(SchedulerType sched, predict::PredictorConfig pred)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = pred.type == predict::PredictorType::None
                        ? PlacementType::Pascal
                        : PlacementType::PascalPredictive;
    cfg.predictor = pred;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = 4096;
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 600;
    cfg.limits.demoteLookaheadTokens = 128;
    return cfg;
}

predict::PredictorConfig
predictorNamed(const std::string& kind)
{
    predict::PredictorConfig cfg;
    if (kind == "oracle") {
        cfg.type = predict::PredictorType::Oracle;
    } else if (kind == "noisy") {
        cfg.type = predict::PredictorType::NoisyOracle;
        cfg.noiseSigma = 0.4;
    } else if (kind == "profile") {
        cfg.type = predict::PredictorType::Profile;
    }
    return cfg;
}

TEST_F(TelemetryDeterminism, TracedForceMatrixMatchesPlainBaseline)
{
    // All 2^2 force-recompute corners, each run WITH tracing enabled,
    // must stay byte-identical to the plain telemetry-off fast path:
    // telemetry may not perturb the simulation even in the debug
    // modes that reshuffle plan/accrual recomputation.
    auto trace = churnTrace(4242);
    SystemConfig base =
        constrained(SchedulerType::Pascal, predictorNamed("oracle"));
    auto baseline = cluster::RunContext::execute(base, trace);

    for (int mask = 0; mask < 4; ++mask) {
        SCOPED_TRACE("force mask " + std::to_string(mask));
        SystemConfig cfg = base;
        cfg.limits.forceResort = (mask & 1) != 0;
        cfg.limits.forceAccrue = (mask & 2) != 0;
        cfg.telemetry.traceEnabled = true;
        auto traced = cluster::RunContext::execute(cfg, trace);
        EXPECT_FALSE(traced.traceJson.empty());
        test::expectIdentical(baseline, traced);
    }
}

TEST_F(TelemetryDeterminism, TracingInvariantAcrossSchedulerGrid)
{
    auto trace = churnTrace(808);
    struct GridPoint
    {
        SchedulerType sched;
        const char* predictor;
    };
    const GridPoint grid[] = {
        {SchedulerType::Fcfs, "none"},
        {SchedulerType::Rr, "noisy"},
        {SchedulerType::Pascal, "none"},
        {SchedulerType::Srpt, "oracle"},
        {SchedulerType::PascalSpec, "profile"},
    };
    for (const auto& point : grid) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(point.sched)) +
                     " predictor " + point.predictor);
        SystemConfig cfg =
            constrained(point.sched, predictorNamed(point.predictor));
        auto plain = cluster::RunContext::execute(cfg, trace);
        cfg.telemetry.traceEnabled = true;
        auto traced = cluster::RunContext::execute(cfg, trace);
        test::expectIdentical(plain, traced);
    }
}

TEST_F(TelemetryDeterminism, StreamingLeavesTheSimulationUntouched)
{
    // Streaming changes how metrics are REPRESENTED (sketches instead
    // of rows), never what was simulated.
    auto trace = churnTrace(606);
    SystemConfig cfg =
        constrained(SchedulerType::Pascal, predictorNamed("none"));
    auto exact = cluster::RunContext::execute(cfg, trace);
    cfg.telemetry.streamingMetrics = true;
    auto streamed = cluster::RunContext::execute(cfg, trace);

    EXPECT_EQ(test::instanceStatSum(streamed.statsDump,
                                    "engine.iterations"),
              test::instanceStatSum(exact.statsDump, "engine.iterations"));
    EXPECT_EQ(streamed.peakGpuKvTokens, exact.peakGpuKvTokens);
    EXPECT_EQ(test::statValue(streamed.statsDump, "cluster.migrations"),
              test::statValue(exact.statsDump, "cluster.migrations"));
    EXPECT_EQ(streamed.numUnfinished, exact.numUnfinished);
    // Streaming keeps no rows, so no transfer list: the sketch folded
    // every transfer the exact run lists.
    EXPECT_TRUE(streamed.kvTransferLatencies.empty());
    EXPECT_EQ(streamed.streaming->kvTransfer().count(),
              exact.kvTransferLatencies.size());
    EXPECT_EQ(streamed.aggregate.numFinished,
              exact.aggregate.numFinished);
    EXPECT_DOUBLE_EQ(streamed.aggregate.meanTtft,
                     exact.aggregate.meanTtft);
    EXPECT_DOUBLE_EQ(streamed.aggregate.meanQoe,
                     exact.aggregate.meanQoe);
}

TEST_F(TelemetryDeterminism, ThreadedSweepDumpsByteIdenticalTelemetry)
{
    // Registry dumps and trace JSON from a 4-thread sweep must match
    // the serial sweep row for row and byte for byte.
    SweepRunner runner;
    auto t0 = runner.addGeneratedTrace(
        workload::DatasetProfile::alpacaEval(), 80, 12.0, 5);
    auto t1 = runner.addGeneratedTrace(
        workload::DatasetProfile::arenaHard(), 50, 4.0, 6);

    SystemConfig traced_pascal = SystemConfig::pascal(2);
    traced_pascal.telemetry.traceEnabled = true;
    SystemConfig traced_fcfs =
        SystemConfig::baseline(SchedulerType::Fcfs, 2);
    traced_fcfs.telemetry.traceEnabled = true;
    runner.addGrid({traced_fcfs, traced_pascal}, {t0, t1}, {1, 2});
    ASSERT_EQ(runner.numPoints(), 8u);

    auto serial = runner.run(1);
    auto threaded = runner.run(4);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + serial.outcomes[i].label);
        const auto& a = serial.outcomes[i].result;
        const auto& b = threaded.outcomes[i].result;
        test::expectIdentical(a, b);
        EXPECT_EQ(a.statsDump, b.statsDump);
        ASSERT_FALSE(a.traceJson.empty());
        EXPECT_EQ(a.traceJson, b.traceJson);
    }
}

} // namespace
