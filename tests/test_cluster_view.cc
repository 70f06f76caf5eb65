/**
 * @file
 * Cluster-view audit tests: the SLO monitor under churn.
 *
 * Every placement decision snapshots every instance, and each
 * snapshot's t_i verdict rides the instance's maintained SloMonitor
 * heaps. With the audit hook on, every decision first re-derives each
 * instance's heap membership, keys and order from scratch and checks
 * the verdict against the reference O(hosted) walk, panicking on any
 * divergence — run against randomized churn-heavy multi-instance
 * workloads.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
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

using ClusterViewAudit = QuietLogs;

workload::Trace
churnTrace(std::uint64_t seed, int n, double rate)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {350.0, 0.8, 32, 1600};
    profile.answering = {150.0, 0.7, 16, 700};
    return workload::generateTrace(profile, n, rate, rng);
}

SystemConfig
churnConfig(SchedulerType sched, PlacementType placement,
            int instances)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = placement;
    cfg.numInstances = instances;
    cfg.gpuKvCapacityTokens = 4096; // Tight: swaps + migrations fire.
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 500;
    cfg.limits.demoteLookaheadTokens = 96;
    // A tight pace makes answeringSloOk actually flip during runs, so
    // the audit exercises the monitor's at-risk re-check path.
    cfg.slo.tpotTarget = 0.05;
    return cfg;
}

/** Run with the audit hook: buildView() panics on the first SLO
 *  monitor divergence, failing the test. */
cluster::RunResult
runAudited(const SystemConfig& cfg, const workload::Trace& trace)
{
    cluster::RunContext ctx(cfg);
    ctx.cluster().enableViewAudit();
    ctx.submit(trace);
    ctx.run();
    return ctx.result();
}

TEST_F(ClusterViewAudit, ChurnHeavyMultiInstanceSnapshotsStayExact)
{
    for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto trace = churnTrace(seed, 140, 18.0);
        auto result = runAudited(
            churnConfig(SchedulerType::Pascal, PlacementType::Pascal, 4),
            trace);
        // The workload must actually churn for the audit to mean
        // anything.
        EXPECT_GT(result.totalMigrations, 0u);
        EXPECT_GT(result.aggregate.numFinished, 0u);
    }
}

TEST_F(ClusterViewAudit, SloHeapMatchesReferenceWalkUnderTtfatLoad)
{
    // The snapshot's t_i verdict rides the per-instance SLO heaps;
    // the audit re-verifies heap membership, keys, order and verdict
    // against the reference O(hosted) walk at every placement
    // decision. startInAnswering requests enter the
    // heap with live TTFAT countdowns at admission — the key path a
    // plain reasoning trace never exercises.
    Rng rng(91);
    auto trace = workload::generateAnsweringCharacterization(
        200, 120.0, rng, {32, 64, 128, 256});
    SystemConfig cfg =
        churnConfig(SchedulerType::Pascal, PlacementType::Pascal, 3);
    auto result = runAudited(cfg, trace);
    EXPECT_GT(result.aggregate.numFinished, 0u);
}

TEST_F(ClusterViewAudit, PredictiveSnapshotsTrackOnlineLearner)
{
    // The profile predictor bumps its version on every completion,
    // so predictive snapshots and PASCAL-Spec's plan reuse both move
    // under the audited heaps.
    SystemConfig cfg = churnConfig(SchedulerType::PascalSpec,
                                   PlacementType::PascalPredictive, 3);
    cfg.predictor.type = predict::PredictorType::Profile;
    auto trace = churnTrace(11, 120, 15.0);
    auto result = runAudited(cfg, trace);
    EXPECT_GT(result.aggregate.numFinished, 0u);
}

TEST_F(ClusterViewAudit, BaselinePlacementAndMigrationFreeVariants)
{
    auto trace = churnTrace(3, 100, 14.0);
    for (PlacementType placement :
         {PlacementType::Baseline, PlacementType::PascalNoMigration,
          PlacementType::PascalNonAdaptive}) {
        SCOPED_TRACE("placement " +
                     std::to_string(static_cast<int>(placement)));
        auto result = runAudited(
            churnConfig(SchedulerType::Rr, placement, 3), trace);
        EXPECT_GT(result.aggregate.numFinished, 0u);
    }
}

TEST_F(ClusterViewAudit, FinishBetweenSameIterationTransitionsRemarks)
{
    // Within one completeIteration's handle loop, a phase
    // transition's placement decision audits the monitor; a *finish*
    // handled next mutates KV and the answering population before the
    // loop's second transition decides again. Lockstep lengths force
    // exactly transition(r0) -> finish(r1) -> transition(r2) in one
    // iteration.
    workload::Trace trace;
    auto spec = [](RequestId id, TokenCount reasoning,
                   TokenCount answer) {
        workload::RequestSpec s;
        s.id = id;
        s.arrival = 0.0;
        s.promptTokens = 64;
        s.reasoningTokens = reasoning;
        s.answerTokens = answer;
        s.dataset = "unit";
        return s;
    };
    trace.requests = {spec(0, 40, 10), spec(1, 30, 10),
                      spec(2, 40, 10), spec(3, 20, 30)};

    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Fcfs;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = 1;
    // An impossible pace wedges the early-transitioning request 3
    // behind its pacer, so the audited verdict is false at every
    // later decision.
    cfg.slo.tpotTarget = 1e-4;
    auto result = runAudited(cfg, trace);
    EXPECT_EQ(result.aggregate.numFinished, 4u);
}

} // namespace
