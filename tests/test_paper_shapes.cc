/**
 * @file
 * Shape-regression tests: scaled-down versions of the paper's key
 * experiments with the qualitative claims asserted, so a refactor
 * that silently breaks a reproduction fails ctest rather than only
 * showing up in bench output.
 *
 * Thresholds are deliberately loose (the full benches use much larger
 * traces); these tests check ordering and rough factors, not values.
 */

#include <gtest/gtest.h>

#include <map>

#include "src/cluster/serving_system.hh"
#include "src/common/rng.hh"
#include "src/common/stats.hh"
#include "src/workload/generator.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::ServingSystem;
using cluster::SystemConfig;

SystemConfig
singleInstance(SchedulerType sched, TokenCount capacity)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = PlacementType::Baseline;
    cfg.numInstances = 1;
    // Derived capacities (oracle peaks, halved budgets) are arbitrary
    // token counts; align them to the paged-KV block size validate()
    // now insists on.
    cfg.gpuKvCapacityTokens =
        SystemConfig::alignKvCapacity(capacity, cfg.kvBlockSizeTokens);
    cfg.limits.maxPrefillTokens = 16384;
    cfg.limits.maxPrefillSeqs = 64;
    return cfg;
}

/** Mean reasoning latency per reasoning-length group. */
std::map<TokenCount, double>
reasoningLatencyByLength(const cluster::RunResult& result)
{
    std::map<TokenCount, stats::Summary> groups;
    for (const auto& m : result.perRequest) {
        if (m.finished)
            groups[m.reasoningTokens].add(m.reasoningLatency);
    }
    std::map<TokenCount, double> out;
    for (auto& [len, summary] : groups)
        out[len] = summary.mean();
    return out;
}

/**
 * Fig. 4 shape: under 50 % memory, FCFS hurts short reasoning
 * requests the most (blocking), RR hurts long ones (preemption), and
 * RR keeps short requests near the oracle.
 */
TEST(PaperShapes, Fig4ReasoningLatencyAsymmetry)
{
    Rng rng(404);
    auto trace = workload::generateReasoningCharacterization(
        150, 3.0, rng, {128, 2048});

    TokenCount oracle_capacity = 0;
    for (const auto& s : trace.requests)
        oracle_capacity += s.promptTokens + s.reasoningTokens + 2;

    auto oracle_cfg = singleInstance(SchedulerType::Fcfs,
                                     oracle_capacity);
    auto oracle = ServingSystem(oracle_cfg).run(trace);
    ASSERT_EQ(oracle.numUnfinished, 0u);
    TokenCount constrained = oracle.peakGpuKvTokens / 2;

    auto fcfs = ServingSystem(singleInstance(SchedulerType::Fcfs,
                                             constrained))
                    .run(trace);
    auto rr = ServingSystem(singleInstance(SchedulerType::Rr,
                                           constrained))
                  .run(trace);

    auto orc = reasoningLatencyByLength(oracle);
    auto f = reasoningLatencyByLength(fcfs);
    auto r = reasoningLatencyByLength(rr);

    // Short requests: FCFS blocked far beyond oracle; RR close to it.
    EXPECT_GT(f[128] / orc[128], 2.0);
    EXPECT_LT(r[128] / orc[128], 1.4);
    // Long requests: RR pays preemption; FCFS is milder there than on
    // short ones (relative to oracle).
    EXPECT_GT(r[2048] / orc[2048], 1.2);
    EXPECT_GT(f[128] / orc[128], f[2048] / orc[2048]);
    // RR's pain concentrates on long requests.
    EXPECT_GT(r[2048] / orc[2048], r[128] / orc[128]);
}

/**
 * Fig. 5 shape: answering-phase SLO attainment is robust under RR
 * (threshold-based) but collapses under FCFS blocking.
 */
TEST(PaperShapes, Fig5AnsweringSloRobustness)
{
    Rng rng(505);
    auto trace = workload::generateAnsweringCharacterization(
        150, 3.0, rng, {128, 1024});

    TokenCount oracle_capacity = 0;
    for (const auto& s : trace.requests)
        oracle_capacity += s.promptTokens + s.answerTokens + 2;

    auto base = singleInstance(SchedulerType::Fcfs, oracle_capacity);
    base.slo.qoeFromFirstToken = false;

    auto oracle = ServingSystem(base).run(trace);
    TokenCount constrained = oracle.peakGpuKvTokens / 2;

    auto fcfs_cfg = singleInstance(SchedulerType::Fcfs, constrained);
    fcfs_cfg.slo.qoeFromFirstToken = false;
    auto rr_cfg = singleInstance(SchedulerType::Rr, constrained);
    rr_cfg.slo.qoeFromFirstToken = false;

    auto fcfs = ServingSystem(fcfs_cfg).run(trace);
    auto rr = ServingSystem(rr_cfg).run(trace);

    EXPECT_LT(oracle.aggregate.sloViolationRate, 0.05);
    EXPECT_LT(rr.aggregate.sloViolationRate, 0.15);
    EXPECT_GT(fcfs.aggregate.sloViolationRate,
              rr.aggregate.sloViolationRate + 0.25);
}

SystemConfig
clusterCfg(SchedulerType sched, PlacementType place)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = place;
    cfg.numInstances = 4;
    // ~40 concurrent AlpacaEval requests per instance: the same
    // many-requests-per-instance regime as the full benches (PASCAL's
    // advantages need per-instance batching, not slot-sized pools).
    cfg.gpuKvCapacityTokens = 52000;
    return cfg;
}

workload::Trace
clusterTrace(std::uint64_t seed = 606)
{
    // 7 req/s sits just past this mini-cluster's saturation knee:
    // memory pressure appears without collapsing into global
    // overload, mirroring the full benches' calibration.
    Rng rng(seed);
    return workload::generateTrace(
        workload::DatasetProfile::alpacaEval(), 700, 7.0, rng);
}

/**
 * Fig. 10 shape: under KV saturation, PASCAL's TTFT beats FCFS
 * clearly and RR moderately; short-reasoning requests see the biggest
 * FCFS gap.
 */
TEST(PaperShapes, Fig10PascalTailWins)
{
    auto trace = clusterTrace();
    auto fcfs = ServingSystem(clusterCfg(SchedulerType::Fcfs,
                                         PlacementType::Baseline))
                    .run(trace);
    auto pascal = ServingSystem(clusterCfg(SchedulerType::Pascal,
                                           PlacementType::Pascal))
                      .run(trace);

    ASSERT_EQ(fcfs.numUnfinished, 0u);
    ASSERT_EQ(pascal.numUnfinished, 0u);
    EXPECT_LT(pascal.aggregate.meanTtft, fcfs.aggregate.meanTtft);

    // Short-reasoning requests: FCFS head-of-line blocking shows up
    // in their *tail* TTFT (the Fig. 10 statistic), not the mean.
    std::vector<double> fcfs_short, pascal_short;
    for (const auto& m : fcfs.perRequest) {
        if (m.reasoningTokens < 300)
            fcfs_short.push_back(m.ttft);
    }
    for (const auto& m : pascal.perRequest) {
        if (m.reasoningTokens < 300)
            pascal_short.push_back(m.ttft);
    }
    EXPECT_GT(stats::percentile(fcfs_short, 95.0),
              1.3 * stats::percentile(pascal_short, 95.0));
}

/** Fig. 12 shape: scheduling does not destroy throughput. */
TEST(PaperShapes, Fig12ThroughputParity)
{
    auto trace = clusterTrace();
    double fcfs = ServingSystem(clusterCfg(SchedulerType::Fcfs,
                                           PlacementType::Baseline))
                      .run(trace)
                      .aggregate.throughputTokensPerSec;
    double pascal = ServingSystem(clusterCfg(SchedulerType::Pascal,
                                             PlacementType::Pascal))
                        .run(trace)
                        .aggregate.throughputTokensPerSec;
    EXPECT_GT(pascal, 0.75 * fcfs);
    EXPECT_LT(pascal, 1.35 * fcfs);
}

/**
 * Fig. 15 shape: disabling the adaptive override costs answering SLO
 * compliance and forces far more migrations.
 */
TEST(PaperShapes, Fig15AdaptiveOverrideProtectsSlo)
{
    auto trace = clusterTrace(707);
    auto full = ServingSystem(clusterCfg(SchedulerType::Pascal,
                                         PlacementType::Pascal))
                    .run(trace);
    auto always =
        ServingSystem(clusterCfg(SchedulerType::Pascal,
                                 PlacementType::PascalNonAdaptive))
            .run(trace);

    EXPECT_GE(always.totalMigrations, full.totalMigrations);
    EXPECT_GE(always.aggregate.sloViolationRate,
              full.aggregate.sloViolationRate);
}

/** Sec. V-C shape: KV transfers are negligible against TTFT. */
TEST(PaperShapes, SecVcTransfersNegligible)
{
    auto trace = clusterTrace();
    auto pascal = ServingSystem(clusterCfg(SchedulerType::Pascal,
                                           PlacementType::Pascal))
                      .run(trace);
    ASSERT_GT(pascal.totalMigrations, 0u);
    double p99_transfer =
        stats::percentile(pascal.kvTransferLatencies, 99.0);
    EXPECT_LT(p99_transfer, 0.05 * pascal.aggregate.meanTtft);
}

} // namespace
