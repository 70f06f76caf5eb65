/**
 * @file
 * Integration tests for the full cluster: routing, migration at phase
 * boundaries, fabric transfer accounting, and the ServingSystem
 * facade.
 */

#include <gtest/gtest.h>

#include "src/cluster/serving_system.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::RunResult;
using cluster::SchedulerType;
using cluster::ServingSystem;
using cluster::SystemConfig;

workload::Trace
smallTrace(int n = 40, double rate = 20.0, std::uint64_t seed = 11)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    // Shrink lengths so the tests run fast.
    profile.reasoning = {120.0, 0.8, 16, 600};
    profile.answering = {100.0, 0.8, 16, 600};
    profile.prompt = {64.0, 0.5, 16, 256};
    return workload::generateTrace(profile, n, rate, rng);
}

SystemConfig
smallConfig(SchedulerType sched, PlacementType place,
            TokenCount capacity = 4000, int instances = 4)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = place;
    cfg.numInstances = instances;
    cfg.gpuKvCapacityTokens = capacity;
    return cfg;
}

TEST(Cluster, AllRequestsFinishUnderEveryScheduler)
{
    auto trace = smallTrace();
    for (auto sched : {SchedulerType::Fcfs, SchedulerType::Rr,
                       SchedulerType::Pascal}) {
        auto place = sched == SchedulerType::Pascal
                         ? PlacementType::Pascal
                         : PlacementType::Baseline;
        ServingSystem system(smallConfig(sched, place));
        auto result = system.run(trace);
        EXPECT_EQ(result.numUnfinished, 0u);
        EXPECT_EQ(result.aggregate.numFinished, trace.size());
        EXPECT_GT(result.aggregate.throughputTokensPerSec, 0.0);
    }
}

TEST(Cluster, PascalMigratesAtPhaseBoundaries)
{
    ServingSystem system(
        smallConfig(SchedulerType::Pascal, PlacementType::Pascal));
    auto result = system.run(smallTrace(60, 40.0));
    EXPECT_EQ(result.numUnfinished, 0u);
    // With several instances and bursty arrivals, some phase
    // transitions must land on a different instance.
    EXPECT_GT(result.totalMigrations, 0u);
    EXPECT_FALSE(result.kvTransferLatencies.empty());
    for (double t : result.kvTransferLatencies)
        EXPECT_GT(t, 0.0);
}

TEST(Cluster, NoMigrationVariantNeverMigrates)
{
    ServingSystem system(smallConfig(SchedulerType::Pascal,
                                     PlacementType::PascalNoMigration));
    auto result = system.run(smallTrace(60, 40.0));
    EXPECT_EQ(result.totalMigrations, 0u);
    EXPECT_TRUE(result.kvTransferLatencies.empty());
}

TEST(Cluster, BaselinePlacementNeverMigrates)
{
    ServingSystem system(
        smallConfig(SchedulerType::Fcfs, PlacementType::Baseline));
    auto result = system.run(smallTrace(60, 40.0));
    EXPECT_EQ(result.totalMigrations, 0u);
}

TEST(Cluster, MetricsArePerRequestComplete)
{
    auto trace = smallTrace(30);
    ServingSystem system(
        smallConfig(SchedulerType::Pascal, PlacementType::Pascal));
    auto result = system.run(trace);

    ASSERT_EQ(result.perRequest.size(), trace.size());
    for (const auto& m : result.perRequest) {
        EXPECT_TRUE(m.finished);
        EXPECT_GT(m.ttft, 0.0);
        EXPECT_GT(m.ttfat, 0.0);
        EXPECT_GE(m.ttft, m.reasoningLatency);
        EXPECT_GE(m.e2eLatency, m.ttft);
        EXPECT_GE(m.qoe, 0.0);
        EXPECT_LE(m.qoe, 1.0);
    }
}

TEST(Cluster, OracleCapacityNeverPreempts)
{
    // Huge capacity: no instance should ever swap.
    auto cfg = smallConfig(SchedulerType::Fcfs, PlacementType::Baseline,
                           2000000);
    ServingSystem system(cfg);
    auto result = system.run(smallTrace(50, 50.0));
    EXPECT_EQ(result.numUnfinished, 0u);
    for (const auto& m : result.perRequest) {
        EXPECT_NEAR(m.reasoningBuckets.preempted, 0.0, 1e-9);
        EXPECT_NEAR(m.answeringBuckets.preempted, 0.0, 1e-9);
    }
}

TEST(Cluster, ConstrainedCapacitySlowerThanOracle)
{
    auto trace = smallTrace(50, 50.0);
    auto oracle_cfg = smallConfig(SchedulerType::Fcfs,
                                  PlacementType::Baseline, 2000000, 2);
    auto tight_cfg = smallConfig(SchedulerType::Fcfs,
                                 PlacementType::Baseline, 1504, 2);

    auto oracle = ServingSystem(oracle_cfg).run(trace);
    auto tight = ServingSystem(tight_cfg).run(trace);

    EXPECT_GE(tight.aggregate.meanTtft,
              oracle.aggregate.meanTtft * 0.99);
    EXPECT_GT(tight.aggregate.p99Ttft, oracle.aggregate.p99Ttft);
}

TEST(Cluster, PeakKvReportedForOracleRecipe)
{
    auto cfg = smallConfig(SchedulerType::Fcfs, PlacementType::Baseline,
                           2000000);
    ServingSystem system(cfg);
    auto result = system.run(smallTrace(30));
    EXPECT_GT(result.peakGpuKvTokens, 0);
    EXPECT_LE(result.peakGpuKvTokens, 2000000);
    EXPECT_EQ(result.kvCapacityTokens, 2000000);
}

TEST(Cluster, CapacityFractionApplied)
{
    auto cfg = smallConfig(SchedulerType::Fcfs, PlacementType::Baseline,
                           10000);
    cfg.kvCapacityFraction = 0.5;
    ServingSystem system(cfg);
    auto result = system.run(smallTrace(5, 5.0));
    EXPECT_EQ(result.kvCapacityTokens, 5000);
}

TEST(Cluster, RunsAreReproducible)
{
    auto trace = smallTrace(40, 30.0);
    auto cfg = smallConfig(SchedulerType::Pascal, PlacementType::Pascal);
    auto r1 = ServingSystem(cfg).run(trace);
    auto r2 = ServingSystem(cfg).run(trace);
    ASSERT_EQ(r1.perRequest.size(), r2.perRequest.size());
    for (std::size_t i = 0; i < r1.perRequest.size(); ++i) {
        EXPECT_DOUBLE_EQ(r1.perRequest[i].ttft, r2.perRequest[i].ttft);
        EXPECT_DOUBLE_EQ(r1.perRequest[i].e2eLatency,
                         r2.perRequest[i].e2eLatency);
    }
    EXPECT_EQ(r1.totalMigrations, r2.totalMigrations);
}

TEST(Cluster, EmptyTraceIsHarmless)
{
    ServingSystem system(
        smallConfig(SchedulerType::Pascal, PlacementType::Pascal));
    auto result = system.run(workload::Trace{});
    EXPECT_EQ(result.aggregate.numRequests, 0u);
    EXPECT_EQ(result.numUnfinished, 0u);
}

TEST(Cluster, SingleInstanceClusterWorks)
{
    auto cfg = smallConfig(SchedulerType::Pascal, PlacementType::Pascal,
                           4000, 1);
    ServingSystem system(cfg);
    auto result = system.run(smallTrace(20));
    EXPECT_EQ(result.numUnfinished, 0u);
    EXPECT_EQ(result.totalMigrations, 0u); // Nowhere to go.
}

TEST(Cluster, ValidatesConfig)
{
    auto cfg = smallConfig(SchedulerType::Pascal, PlacementType::Pascal);
    cfg.numInstances = 0;
    EXPECT_THROW(ServingSystem{cfg}, FatalError);

    cfg = smallConfig(SchedulerType::Pascal, PlacementType::Pascal);
    cfg.kvCapacityFraction = -0.5;
    EXPECT_THROW(ServingSystem{cfg}, FatalError);
}

TEST(Cluster, ThroughputComparableAcrossSchedulers)
{
    // Fig. 12's qualitative claim: scheduling does not change total
    // throughput much (within a loose band here).
    auto trace = smallTrace(80, 40.0);
    double tp_fcfs =
        ServingSystem(
            smallConfig(SchedulerType::Fcfs, PlacementType::Baseline))
            .run(trace)
            .aggregate.throughputTokensPerSec;
    double tp_pascal =
        ServingSystem(
            smallConfig(SchedulerType::Pascal, PlacementType::Pascal))
            .run(trace)
            .aggregate.throughputTokensPerSec;
    EXPECT_GT(tp_pascal, tp_fcfs * 0.5);
    EXPECT_LT(tp_pascal, tp_fcfs * 2.0);
}

} // namespace
