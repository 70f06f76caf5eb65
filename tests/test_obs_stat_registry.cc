/**
 * @file
 * StatRegistry tests: the unit contract (non-owning counters, polled
 * gauges, registry-owned distributions, registration-order dumps) and
 * the end-to-end contract — a cluster run's generic statsDump is a
 * superset of the hand-wired RunResult counters, with matching values.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/obs/stat_registry.hh"
#include "src/workload/generator.hh"

namespace
{

using namespace pascal;
using cluster::SchedulerType;
using cluster::SystemConfig;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using StatRegistryEndToEnd = QuietLogs;

TEST(StatRegistry, CounterPointerReadsLiveValue)
{
    obs::StatRegistry reg;
    std::uint64_t hits = 0;
    reg.counter("unit.hits", &hits);
    hits = 41;
    ++hits; // The hot path stays a bare increment.
    auto dump = reg.dump();
    ASSERT_EQ(dump.size(), 1u);
    EXPECT_EQ(dump[0].name, "unit.hits");
    EXPECT_EQ(dump[0].kind, obs::StatKind::Counter);
    EXPECT_DOUBLE_EQ(dump[0].value, 42.0);
}

TEST(StatRegistry, PolledCounterAndGauge)
{
    obs::StatRegistry reg;
    std::uint64_t a = 3;
    std::uint64_t b = 4;
    reg.counter("unit.total", [&]() { return a + b; });
    double level = 0.25;
    reg.gauge("unit.level", [&]() { return level; });

    a = 10;
    level = 0.75;
    auto dump = reg.dump();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_DOUBLE_EQ(dump[0].value, 14.0);
    EXPECT_EQ(dump[1].kind, obs::StatKind::Gauge);
    EXPECT_DOUBLE_EQ(dump[1].value, 0.75);
}

TEST(StatRegistry, DistributionSummarizesSamples)
{
    obs::StatRegistry reg;
    stats::Summary& dist = reg.distribution("unit.batch");
    for (double v : {2.0, 4.0, 6.0})
        dist.add(v);
    auto dump = reg.dump();
    ASSERT_EQ(dump.size(), 1u);
    EXPECT_EQ(dump[0].kind, obs::StatKind::Distribution);
    EXPECT_EQ(dump[0].count, 3u);
    EXPECT_DOUBLE_EQ(dump[0].mean, 4.0);
    EXPECT_DOUBLE_EQ(dump[0].min, 2.0);
    EXPECT_DOUBLE_EQ(dump[0].max, 6.0);
    EXPECT_GT(dump[0].stddev, 0.0);
}

TEST(StatRegistry, EmptyDistributionDumpsFiniteBounds)
{
    obs::StatRegistry reg;
    reg.distribution("unit.empty");
    auto dump = reg.dump();
    ASSERT_EQ(dump.size(), 1u);
    EXPECT_EQ(dump[0].count, 0u);
    // Summary's empty min/max are +/-inf; the dump must stay
    // serializable.
    EXPECT_DOUBLE_EQ(dump[0].min, 0.0);
    EXPECT_DOUBLE_EQ(dump[0].max, 0.0);
}

TEST(StatRegistry, DumpPreservesRegistrationOrderAndFindStat)
{
    obs::StatRegistry reg;
    std::uint64_t z = 1;
    std::uint64_t a = 2;
    reg.counter("z.last.alphabetically-first-registered", &z);
    reg.counter("a.first.alphabetically-last-registered", &a);
    reg.distribution("m.middle");
    auto dump = reg.dump();
    ASSERT_EQ(dump.size(), 3u);
    EXPECT_EQ(dump[0].name, "z.last.alphabetically-first-registered");
    EXPECT_EQ(dump[1].name, "a.first.alphabetically-last-registered");
    EXPECT_EQ(dump[2].name, "m.middle");

    const obs::StatValue* found = obs::findStat(dump, "m.middle");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->kind, obs::StatKind::Distribution);
    EXPECT_EQ(obs::findStat(dump, "no.such.stat"), nullptr);
}

TEST(StatRegistry, StatKindNames)
{
    EXPECT_STREQ(obs::statKindName(obs::StatKind::Counter), "counter");
    EXPECT_STREQ(obs::statKindName(obs::StatKind::Gauge), "gauge");
    EXPECT_STREQ(obs::statKindName(obs::StatKind::Distribution),
                 "distribution");
}

/** A registry snapshot from a real run: the cluster rollups must equal
 *  the per-instance stats they sum, and RunResult's counters are
 *  views of them. */
TEST_F(StatRegistryEndToEnd, DumpIsSupersetOfHandWiredCounters)
{
    Rng rng(321);
    auto trace = workload::generateTrace(
        workload::DatasetProfile::alpacaEval(), 150, 20.0, rng);
    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Pascal;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = 4096;
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 600;

    cluster::RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    const auto& clu = ctx.cluster();
    const auto& dump = result.statsDump;

    auto counter_value = [&](const std::string& name) -> double {
        const obs::StatValue* stat = obs::findStat(dump, name);
        EXPECT_NE(stat, nullptr) << "missing stat " << name;
        return stat ? stat->value : -1.0;
    };

    // Every decision snapshots every instance.
    EXPECT_GT(counter_value("cluster.view.builds"), 0.0);
    EXPECT_DOUBLE_EQ(counter_value("cluster.view.refreshes"),
                     counter_value("cluster.view.builds") *
                         cfg.numInstances);
    // Fault-free, every started migration lands on a finished row.
    EXPECT_DOUBLE_EQ(counter_value("cluster.migrations"),
                     static_cast<double>(result.aggregate.totalMigrations));

    // Per-instance stats exist for every instance and roll up to the
    // cluster totals.
    double iterations = 0.0;
    double batches = 0.0;
    double full_walks = 0.0;
    double plan_builds = 0.0;
    double rekeys = 0.0;
    for (int i = 0; i < cfg.numInstances; ++i) {
        const std::string prefix =
            "instance." + std::to_string(i);
        iterations +=
            counter_value(prefix + ".engine.iterations");
        full_walks += counter_value(prefix + ".plan.full_walks");
        plan_builds += counter_value(prefix + ".plan.builds");
        rekeys += counter_value(prefix + ".slo.rekeys");
        EXPECT_NE(obs::findStat(dump, prefix + ".kv.gpu_capacity"),
                  nullptr);
        const obs::StatValue* batch =
            obs::findStat(dump, prefix + ".batch.decode_size");
        ASSERT_NE(batch, nullptr);
        EXPECT_EQ(batch->kind, obs::StatKind::Distribution);
        EXPECT_GT(batch->count, 0u);
        batches += static_cast<double>(batch->count);
    }
    // Every iteration adds one decode batch-size sample.
    EXPECT_DOUBLE_EQ(iterations, batches);
    EXPECT_DOUBLE_EQ(plan_builds, counter_value("cluster.plan.builds"));
    EXPECT_DOUBLE_EQ(rekeys, counter_value("cluster.slo.rekeys"));
    // Every non-reused boundary is a full walk.
    EXPECT_DOUBLE_EQ(full_walks, plan_builds);

    // Two snapshots of an idle cluster are identical, row for row.
    EXPECT_EQ(clu.dumpStats(), clu.dumpStats());
}

} // namespace
