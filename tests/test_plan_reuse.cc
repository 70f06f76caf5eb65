/**
 * @file
 * Plan-reuse / incremental-scheduling invariance tests.
 *
 * The iteration fast path (incremental queues + verbatim plan reuse)
 * is a pure speed optimization: its one non-negotiable contract is
 * that RunResults stay byte-identical to the force-resort debug mode
 * that recomputes every queue from scratch each iteration. These
 * tests run randomized constrained traces across the full
 * {FCFS, RR, PASCAL, SRPT, PASCAL-Spec} x predictor grid in both
 * modes and compare every metric field exactly, plus unit-level
 * checks of the maintained monitor counters and the fast-path
 * engagement itself (including which policies never engage it:
 * predictor-keyed SRPT and PASCAL-Spec always recompute).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/core/pascal_scheduler.hh"
#include "src/workload/generator.hh"
#include "tests/run_result_util.hh"
#include "tests/scheduler_test_util.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SystemConfig;
using test::SchedulerHarness;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using PlanReuseInvariance = QuietLogs;
using PlanReuseFastPath = QuietLogs;

/**
 * A reasoning-heavy trace on a memory-constrained deployment:
 * arrivals, completions, phase transitions, migrations, swaps, and
 * demotions all fire, so every dirty-set code path is exercised.
 */
workload::Trace
churnTrace(std::uint64_t seed, int n = 140)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {300.0, 0.8, 32, 1500};
    profile.answering = {120.0, 0.7, 16, 600};
    return workload::generateTrace(profile, n, 12.0, rng);
}

/**
 * The transition-storm shape scaled for CI: short phases at a
 * moderate rate, so on a pool with headroom plan boundaries are
 * dirtied by arrivals, departures, phase transitions, demotions and
 * migration landings rather than by swap traffic.
 */
workload::Trace
transitionTrace(std::uint64_t seed, int n = 400)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {64.0, 0.4, 32, 128};
    profile.reasoning = {25.0, 0.5, 16, 60};
    profile.answering = {45.0, 0.5, 16, 120};
    return workload::generateTrace(profile, n, 60.0, rng);
}

/**
 * Sustained memory pressure: on a 3072-token pool only a fraction of
 * the material set fits, so kept/evicted membership oscillates
 * boundary to boundary (swap thrash) and most plans carry swap
 * traffic.
 */
workload::Trace
swapThrashTrace(std::uint64_t seed, int n = 250)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 32, 192};
    profile.reasoning = {200.0, 0.7, 32, 800};
    profile.answering = {80.0, 0.6, 16, 300};
    return workload::generateTrace(profile, n, 30.0, rng);
}

/** One input of the scheduler x predictor grids: a trace and the
 *  per-instance KV pool it runs on. */
struct GridInput
{
    const char* name;
    workload::Trace trace;
    TokenCount capacity;
};

/** The churn trace on a tight pool, plus the transition storm with
 *  headroom and the swap thrash. */
std::vector<GridInput>
gridInputs(std::uint64_t churn_seed)
{
    return {{"churn", churnTrace(churn_seed), 4096},
            {"transition", transitionTrace(77), 32768},
            {"thrash", swapThrashTrace(78), 3072}};
}

SystemConfig
constrained(SchedulerType sched, predict::PredictorConfig pred,
            PlacementType placement, TokenCount capacity = 4096)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = placement;
    cfg.predictor = pred;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = capacity; // 4096 forces swaps.
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 600; // Demotions actually fire.
    cfg.limits.demoteLookaheadTokens = 128;
    return cfg;
}

void
expectModesIdentical(SystemConfig cfg, const workload::Trace& trace)
{
    cfg.limits.forceResort = false;
    auto fast = cluster::RunContext::execute(cfg, trace);
    cfg.limits.forceResort = true;
    auto reference = cluster::RunContext::execute(cfg, trace);
    test::expectIdentical(fast, reference);
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
    } else if (kind == "rank") {
        cfg.type = predict::PredictorType::Rank;
    }
    return cfg;
}

TEST_F(PlanReuseInvariance, FcfsMigrationKeepsStrictOrderUnderPressure)
{
    // Regression guard for the strict-order walk: FCFS may never skip
    // its waiting stream — the first unfit waiting candidate blocks
    // every later candidate, including answering requests that
    // migrated in with late arrival stamps. High transition/migration
    // rates against a saturating waiting head maximize the chance a
    // landed migrant sits behind a blocked waiting request.
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        auto profile = workload::DatasetProfile::alpacaEval();
        profile.prompt = {160.0, 0.5, 64, 320}; // Fat waiting heads.
        profile.reasoning = {30.0, 0.5, 16, 80}; // Rapid transitions.
        profile.answering = {120.0, 0.6, 32, 400};
        auto trace = workload::generateTrace(profile, 160, 60.0, rng);

        SystemConfig cfg;
        cfg.scheduler = SchedulerType::Fcfs;
        cfg.placement = PlacementType::Pascal; // Migrations fire.
        cfg.numInstances = 2;
        cfg.gpuKvCapacityTokens = 3072;
        cfg.kvBlockSizeTokens = 16;

        cfg.limits.forceResort = false;
        auto fast = cluster::RunContext::execute(cfg, trace);
        cfg.limits.forceResort = true;
        auto reference = cluster::RunContext::execute(cfg, trace);
        test::expectIdentical(fast, reference);
        EXPECT_GT(fast.totalMigrations, 0);
    }
}

TEST_F(PlanReuseInvariance, EvictionStormTailStaysByteIdentical)
{
    // Swap-thrashing regime: the incremental walk's early exit
    // settles unreached residents from the material list and restores
    // priority order only when an eviction actually fires — the
    // evicted set and swap-out sequence must still match the
    // recompute walk exactly, every iteration.
    Rng rng(4711);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 48, 192};
    profile.reasoning = {240.0, 0.7, 64, 900};
    profile.answering = {100.0, 0.6, 16, 400};
    auto trace = workload::generateTrace(profile, 180, 40.0, rng);

    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr, SchedulerType::Pascal,
          SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(sched)));
        SystemConfig cfg;
        cfg.scheduler = sched;
        cfg.placement = PlacementType::Pascal;
        cfg.numInstances = 2;
        cfg.gpuKvCapacityTokens = 2048; // Brutal: constant evictions.
        cfg.kvBlockSizeTokens = 16;
        cfg.limits.demoteThresholdTokens = 600;
        if (sched == SchedulerType::Srpt ||
            sched == SchedulerType::PascalSpec) {
            // Speculative policies need a predictor to rank by.
            cfg.predictor.type = predict::PredictorType::Oracle;
        }

        cfg.limits.forceResort = false;
        auto fast = cluster::RunContext::execute(cfg, trace);
        cfg.limits.forceResort = true;
        auto reference = cluster::RunContext::execute(cfg, trace);
        test::expectIdentical(fast, reference);
        EXPECT_GT(fast.totalIterations, 0u);
    }
}

TEST_F(PlanReuseInvariance, ReactiveSchedulersAcrossPredictors)
{
    // Reactive policies ignore predictions for ordering, but wiring a
    // predictor still exercises the predictive-placement snapshots
    // under incremental bookkeeping.
    for (const GridInput& input : gridInputs(1234)) {
        for (SchedulerType sched :
             {SchedulerType::Fcfs, SchedulerType::Rr,
              SchedulerType::Pascal}) {
            for (const std::string kind : {"none", "oracle", "noisy"}) {
                SCOPED_TRACE(std::string(input.name) + " scheduler " +
                             std::to_string(static_cast<int>(sched)) +
                             " predictor " + kind);
                auto pred = predictorNamed(kind);
                auto placement = kind == "none"
                                     ? PlacementType::Pascal
                                     : PlacementType::PascalPredictive;
                expectModesIdentical(
                    constrained(sched, pred, placement, input.capacity),
                    input.trace);
            }
        }
    }
}

TEST_F(PlanReuseInvariance, SpeculativeSchedulersAcrossPredictors)
{
    // SRPT and PASCAL-Spec always recompute; forceResort makes them
    // sort from scratch instead of warm-starting from the last sort,
    // which must not change a byte. Static predictors re-key only the
    // executed members, online learners (profile, rank) also the idle
    // ones.
    for (const GridInput& input : gridInputs(777)) {
        for (SchedulerType sched :
             {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
            for (const std::string kind :
                 {"oracle", "noisy", "profile", "rank"}) {
                SCOPED_TRACE(std::string(input.name) + " scheduler " +
                             std::to_string(static_cast<int>(sched)) +
                             " predictor " + kind);
                auto pred = predictorNamed(kind);
                expectModesIdentical(
                    constrained(sched, pred,
                                PlacementType::PascalPredictive,
                                input.capacity),
                    input.trace);
            }
        }
    }
}

TEST_F(PlanReuseInvariance, SpeculativeWithoutPredictorStillRejected)
{
    // The {none} x {SRPT, PASCAL-Spec} corner of the acceptance grid
    // is invalid by construction; the config layer rejects it before
    // either scheduling mode could diverge.
    for (SchedulerType sched :
         {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        SystemConfig cfg = constrained(sched, predictorNamed("none"),
                                       PlacementType::Pascal);
        EXPECT_THROW(cfg.validate(), FatalError);
    }
}

TEST_F(PlanReuseInvariance, UncontendedSteadyStateAlsoIdentical)
{
    // Plenty of memory: the run is dominated by reusable decode-only
    // iterations, the exact regime the fast path targets.
    Rng rng(9);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {800.0, 0.3, 256, 2000};
    profile.answering = {300.0, 0.3, 64, 800};
    auto trace = workload::generateTrace(profile, 40, 50.0, rng);
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr,
          SchedulerType::Pascal}) {
        SystemConfig cfg;
        cfg.scheduler = sched;
        cfg.placement = PlacementType::Pascal;
        cfg.numInstances = 1;
        expectModesIdentical(cfg, trace);
    }
}

TEST_F(PlanReuseFastPath, SteadyStateActuallyReusesPlans)
{
    if (std::getenv("PASCAL_FORCE_RESORT") != nullptr)
        GTEST_SKIP() << "fast path globally disabled by env";
    Rng rng(5);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {800.0, 0.3, 256, 2000};
    profile.answering = {300.0, 0.3, 64, 800};
    auto trace = workload::generateTrace(profile, 12, 100.0, rng);

    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Pascal;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = 1;

    cluster::RunContext fast(cfg);
    fast.submit(trace);
    fast.run();
    const auto& inst = *fast.cluster().getInstances()[0];
    EXPECT_GT(inst.numIterations(), 0u);
    // Long decode phases: the bulk of iterations must have reused the
    // previous plan verbatim.
    EXPECT_GT(inst.numPlanReuses(), inst.numIterations() / 2);

    cfg.limits.forceResort = true;
    cluster::RunContext slow(cfg);
    slow.submit(trace);
    slow.run();
    EXPECT_EQ(slow.cluster().getInstances()[0]->numPlanReuses(), 0u);
    test::expectIdentical(fast.result(), slow.result());
}

TEST_F(PlanReuseFastPath, MaintainedCountersTrackScriptedSequence)
{
    if (std::getenv("PASCAL_FORCE_RESORT") != nullptr)
        GTEST_SKIP() << "fast path globally disabled by env";
    // Drive a scheduler through the notification contract directly
    // and check the O(1) counters against the states the recompute
    // scan would report.
    core::SchedLimits limits;
    limits.quantum = 4;
    limits.demoteThresholdTokens = 200;
    core::PascalScheduler sched(limits);
    sched.enableIncremental();
    ASSERT_TRUE(sched.incrementalEnabled());

    SchedulerHarness h(100000);
    auto* rea = h.make(0, 0.0, 64, 300, 10);
    auto* ans = h.make(1, 1.0, 64, 2, 600);
    sched.add(rea);
    sched.add(ans);
    EXPECT_EQ(sched.numReasoning(), 2);
    EXPECT_EQ(sched.numFreshAnswering(), 0);

    // ans transitions to answering with a fresh quantum.
    h.makeResident(ans, limits.quantum);
    sched.noteExecuted(ans); // Prefill emitted its first token.
    h.decodeTokens(ans, 1, 0.5, limits.quantum);
    sched.noteExecuted(ans);
    sched.onPhaseTransition(ans);
    EXPECT_EQ(sched.numReasoning(), 1);
    EXPECT_EQ(sched.numFreshAnswering(), 1);

    // A full quantum of answering tokens: no longer fresh.
    for (int i = 0; i < limits.quantum; ++i) {
        h.decodeTokens(ans, 1, 2.0, limits.quantum);
        sched.noteExecuted(ans);
    }
    EXPECT_EQ(sched.numFreshAnswering(), 0);

    // rea crosses the demotion threshold; the rule applies at the
    // next plan boundary (exactly like recompute mode).
    h.makeResident(rea, limits.quantum);
    sched.noteExecuted(rea);
    h.decodeTokens(rea, 149, 3.0, limits.quantum); // kv 65 -> 214.
    sched.noteExecuted(rea);
    EXPECT_EQ(sched.numReasoning(), 1);
    auto plan = sched.plan(h.pool);
    EXPECT_FALSE(plan.idle());
    EXPECT_TRUE(rea->demoted);
    EXPECT_EQ(sched.numReasoning(), 0);

    // Removal keeps the counters consistent.
    sched.remove(ans);
    EXPECT_EQ(sched.numFreshAnswering(), 0);
    EXPECT_EQ(sched.hosted().size(), 1u);
}

TEST_F(PlanReuseFastPath, RemovePanicNamesInstance)
{
    core::SchedLimits limits;
    core::PascalScheduler sched(limits);
    sched.setInstanceId(3);
    SchedulerHarness h(1000);
    auto* a = h.make(7, 0.0, 64, 10, 10);
    EXPECT_DEATH(sched.remove(a),
                 "request 7 not hosted on instance 3");
}

TEST_F(PlanReuseFastPath, ForceResortEnvAndLimitDisableIncremental)
{
    core::SchedLimits limits;
    limits.forceResort = true;
    core::PascalScheduler sched(limits);
    sched.enableIncremental();
    EXPECT_FALSE(sched.incrementalEnabled());
}

TEST_F(PlanReuseInvariance, AllEightForceCornersByteIdentical)
{
    // {FORCE_VIEW} x {FORCE_RESORT} x {FORCE_ACCRUE}: every corner
    // disables (or eagerly verifies) a different maintained
    // structure, so all 8 runs recompute different subsets of the
    // same state and must agree byte-for-byte. The all-ones corner is
    // the seed's cost model; mask 0 is the production fast path.
    auto trace = transitionTrace(555, 300);
    SystemConfig base =
        constrained(SchedulerType::Pascal, predictorNamed("oracle"),
                    PlacementType::PascalPredictive, 8192);

    std::vector<cluster::RunResult> results;
    for (int mask = 0; mask < 8; ++mask) {
        SystemConfig cfg = base;
        cfg.forceViewRebuild = (mask & 1) != 0;
        cfg.limits.forceResort = (mask & 2) != 0;
        cfg.limits.forceAccrue = (mask & 4) != 0;
        results.push_back(cluster::RunContext::execute(cfg, trace));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        SCOPED_TRACE("mode mask " + std::to_string(i));
        test::expectIdentical(results[0], results[i]);
    }
}

TEST_F(PlanReuseFastPath, PredictorKeyedSchedulersAlwaysRecompute)
{
    if (std::getenv("PASCAL_FORCE_RESORT") != nullptr)
        GTEST_SKIP() << "fast path globally disabled by env";
    // Predicted remaining work moves with every token, so SRPT and
    // PASCAL-Spec never maintain queues: no plan is reused. Wiring a
    // predictor only for predictive placement leaves reactive
    // PASCAL's queues unkeyed, and it keeps the incremental fast
    // path.
    auto trace = transitionTrace(99, 500);
    struct Case
    {
        SchedulerType sched;
        const char* predictor;
        bool keyed;
    };
    for (const Case& c : {Case{SchedulerType::PascalSpec, "profile", true},
                          Case{SchedulerType::Srpt, "oracle", true},
                          Case{SchedulerType::Pascal, "profile", false}}) {
        SCOPED_TRACE(std::string("scheduler ") +
                     std::to_string(static_cast<int>(c.sched)) +
                     " predictor " + c.predictor);
        SystemConfig cfg =
            constrained(c.sched, predictorNamed(c.predictor),
                        PlacementType::PascalPredictive, 32768);
        cluster::RunContext ctx(cfg);
        ctx.submit(trace);
        ctx.run();
        std::uint64_t reuses = 0;
        for (const auto& inst : ctx.cluster().getInstances()) {
            EXPECT_EQ(inst->scheduler().incrementalEnabled(), !c.keyed);
            reuses += inst->numPlanReuses();
        }
        if (c.keyed) {
            EXPECT_EQ(reuses, 0u);
        } else {
            EXPECT_GT(reuses, 0u);
        }
    }
}

} // namespace
