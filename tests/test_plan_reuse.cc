/**
 * @file
 * Plan-reuse / maintained-queue invariance tests.
 *
 * The iteration fast path (maintained queues + verbatim plan reuse)
 * is a pure speed optimization: its one non-negotiable contract is
 * that RunResults stay byte-identical to the force-resort twin that
 * rebuilds and cold-sorts every queue from scratch each iteration.
 * These tests run randomized constrained traces across the full
 * {FCFS, RR, PASCAL, SRPT, PASCAL-Spec} x predictor grid both ways
 * and compare the results exactly, plus unit-level checks of the
 * maintained monitor counters and the fast-path engagement itself:
 * predictor-keyed SRPT and PASCAL-Spec reuse a plan only while the
 * predictor version holds and the batch keeps its order. Scripted
 * decode runs pin the ways such a batch stops being the walk's answer
 * (a tie at the profile's clamp, unequal noise factors, a lookahead
 * demotion, a rising key): each must decline. A predictor version
 * bump that keeps every queue in order keeps the plan; one that
 * reorders members builds. A randomized lockstep holds a scheduler
 * told of emissions only at their wake tokens, as the engine tells
 * it, to one told of every emission, and bounds how often it is told.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/core/fcfs_scheduler.hh"
#include "src/core/pascal_scheduler.hh"
#include "src/core/pascal_spec_scheduler.hh"
#include "src/core/rr_scheduler.hh"
#include "src/core/srpt_scheduler.hh"
#include "src/predict/oracle_predictor.hh"
#include "src/predict/profile_predictor.hh"
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

/** True when PASCAL_FORCE_RESORT turns the fast path off globally. */
bool
fastPathForcedOff()
{
    return std::getenv("PASCAL_FORCE_RESORT") != nullptr;
}

/** Plans the run reused, summed over its instances. */
std::uint64_t
planReuses(const cluster::RunContext& ctx)
{
    return static_cast<std::uint64_t>(
        test::instanceStatSum(ctx.cluster().dumpStats(), "plan.reuses"));
}

/** Runs @p trace with the fast path and with the force-resort twin,
 *  expects identical results, and returns the fast run's reuses. */
std::uint64_t
expectModesIdentical(SystemConfig cfg, const workload::Trace& trace)
{
    cfg.limits.forceResort = false;
    cluster::RunContext fast(cfg);
    fast.submit(trace);
    fast.run();
    cfg.limits.forceResort = true;
    auto reference = cluster::RunContext::execute(cfg, trace);
    test::expectIdentical(fast.result(), reference);
    return planReuses(fast);
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
    // Regression guard for the strict-order walk: the first unfit
    // waiting candidate blocks every later candidate, including answering requests that
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
        EXPECT_GT(fast.aggregate.totalMigrations, 0);
    }
}

TEST_F(PlanReuseInvariance, EvictionStormTailStaysByteIdentical)
{
    // Swap-thrashing regime: the walk exits early once the batch is
    // full and every KV holder has been seen — the evicted set and
    // swap-out sequence of the maintained queues must still match the
    // twin's rebuilt ones exactly, every iteration.
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
        EXPECT_GT(test::instanceStatSum(fast.statsDump,
                                        "engine.iterations"),
                  0.0);
    }
}

TEST_F(PlanReuseInvariance, ReactiveSchedulersAcrossPredictors)
{
    // Reactive policies ignore predictions for ordering, but wiring a
    // predictor still exercises the predictive-placement snapshots
    // under maintained bookkeeping.
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
    // SRPT and PASCAL-Spec re-key their executed members at each
    // repair; forceResort makes them re-key and sort every member from
    // scratch and never reuse a plan, which must not change a byte.
    // Static predictors re-key only the executed members, online
    // learners (profile, rank) also the idle ones. Every cell must
    // actually reuse, or the identity would hold vacuously.
    for (SchedulerType sched :
         {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        for (const std::string kind :
             {"oracle", "noisy", "profile", "rank"}) {
            std::uint64_t reuses = 0;
            for (const GridInput& input : gridInputs(777)) {
                SCOPED_TRACE(std::string(input.name) + " scheduler " +
                             std::to_string(static_cast<int>(sched)) +
                             " predictor " + kind);
                auto pred = predictorNamed(kind);
                reuses += expectModesIdentical(
                    constrained(sched, pred,
                                PlacementType::PascalPredictive,
                                input.capacity),
                    input.trace);
            }
            if (!fastPathForcedOff()) {
                EXPECT_GT(reuses, 0u)
                    << "scheduler " << static_cast<int>(sched)
                    << " predictor " << kind;
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
    const double iterations = test::statValue(
        fast.cluster().dumpStats(), "instance.0.engine.iterations");
    EXPECT_GT(iterations, 0.0);
    // Long decode phases: the bulk of iterations must have reused the
    // previous plan verbatim.
    EXPECT_GT(static_cast<double>(planReuses(fast)), iterations / 2);

    cfg.limits.forceResort = true;
    cluster::RunContext slow(cfg);
    slow.submit(trace);
    slow.run();
    EXPECT_EQ(planReuses(slow), 0u);
    test::expectIdentical(fast.result(), slow.result());
}

TEST_F(PlanReuseFastPath, MaintainedCountersTrackScriptedSequence)
{
    if (std::getenv("PASCAL_FORCE_RESORT") != nullptr)
        GTEST_SKIP() << "fast path globally disabled by env";
    // Drive a scheduler through the notification contract (the
    // harness reports every mutation) and check the O(1) counters
    // against the states the twin's scan would report.
    core::SchedLimits limits;
    limits.quantum = 4;
    limits.demoteThresholdTokens = 200;
    core::PascalScheduler sched(limits);
    sched.enableIncremental();
    SchedulerHarness h(100000, &sched);
    core::IterationPlan none;
    EXPECT_FALSE(sched.reusePlan(none, h.pool));
    EXPECT_EQ(sched.lastReuseDecline(), core::PlanDecline::StateChanged);

    auto* rea = h.make(0, 0.0, 64, 300, 10);
    auto* ans = h.make(1, 1.0, 64, 2, 600);
    sched.add(rea);
    sched.add(ans);
    EXPECT_EQ(sched.numReasoning(), 2);
    EXPECT_EQ(sched.numFreshAnswering(), 0);

    // ans transitions to answering with a fresh quantum.
    h.makeResident(ans, limits.quantum); // Prefill emits token 1.
    h.decodeTokens(ans, 1, 0.5, limits.quantum);
    sched.onPhaseTransition(ans);
    EXPECT_EQ(sched.numReasoning(), 1);
    EXPECT_EQ(sched.numFreshAnswering(), 1);

    // A full quantum of answering tokens: no longer fresh.
    h.decodeTokens(ans, limits.quantum, 2.0, limits.quantum);
    EXPECT_EQ(sched.numFreshAnswering(), 0);

    // rea crosses the demotion threshold; the rule applies at the
    // next plan boundary.
    h.makeResident(rea, limits.quantum);
    h.decodeTokens(rea, 149, 3.0, limits.quantum); // kv 65 -> 214.
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

TEST_F(PlanReuseFastPath, ForceResortTwinNeverReusesAPlan)
{
    // The twin (the limit, or the env var for every scheduler)
    // ignores enableIncremental(): every boundary declines as
    // Inactive, and its counters, answered by scanning, still track
    // requests it was never notified about.
    const bool env = std::getenv("PASCAL_FORCE_RESORT") != nullptr;
    for (const bool force : {true, false}) {
        SCOPED_TRACE(force ? "forceResort" : "default limits");
        core::SchedLimits limits;
        limits.forceResort = force;
        core::PascalScheduler sched(limits);
        sched.enableIncremental();
        SchedulerHarness h(100000, &sched);
        auto* r = h.make(0, 0.0, 64, 300, 10);
        sched.add(r);
        h.makeResident(r, limits.quantum);
        core::IterationPlan plan;
        for (int b = 0; b < 3; ++b) {
            if (!sched.reusePlan(plan, h.pool))
                sched.buildPlan(h.pool, plan);
            ASSERT_EQ(plan.decode.size(), 1u);
            h.decodeTokens(r, 1, static_cast<Time>(b), limits.quantum);
        }
        const bool twin = force || env;
        EXPECT_EQ(sched.reusePlan(plan, h.pool), !twin);
        EXPECT_EQ(sched.lastReuseDecline() == core::PlanDecline::Inactive,
                  twin);
        EXPECT_EQ(sched.numReasoning(), 1);
    }
}

TEST_F(PlanReuseInvariance, AllFourForceCornersByteIdentical)
{
    // {FORCE_RESORT} x {FORCE_ACCRUE}: every corner disables (or
    // eagerly verifies) a different maintained structure, so all 4
    // runs recompute different subsets of the same state and must
    // agree byte-for-byte. The all-ones corner is
    // the seed's cost model; mask 0 is the production fast path.
    auto trace = transitionTrace(555, 300);
    SystemConfig base =
        constrained(SchedulerType::Pascal, predictorNamed("oracle"),
                    PlacementType::PascalPredictive, 8192);

    std::vector<cluster::RunResult> results;
    for (int mask = 0; mask < 4; ++mask) {
        SystemConfig cfg = base;
        cfg.limits.forceResort = (mask & 1) != 0;
        cfg.limits.forceAccrue = (mask & 2) != 0;
        results.push_back(cluster::RunContext::execute(cfg, trace));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        SCOPED_TRACE("mode mask " + std::to_string(i));
        test::expectIdentical(results[0], results[i]);
    }
}

TEST_F(PlanReuseFastPath, PredictorKeyedSchedulersReusePlans)
{
    if (fastPathForcedOff())
        GTEST_SKIP() << "fast path globally disabled by env";
    // Between predictor changes a running member's key of SRPT and
    // PASCAL-Spec only falls and an idle request's key holds, so their
    // plans are reused. Wiring a predictor only for predictive
    // placement leaves reactive PASCAL's queues unkeyed.
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
        for (const auto& inst : ctx.cluster().getInstances())
            EXPECT_EQ(inst->scheduler().keysUsePredictions(), c.keyed);
        EXPECT_GT(planReuses(ctx), 0u);
    }
}

/** One plan boundary of a scripted decode run. */
struct Boundary
{
    std::vector<RequestId> decode; //!< The plan's decode order.
    std::vector<bool> demoted;     //!< Per request, after planning.
    bool reused = false;
    core::PlanDecline decline = core::PlanDecline::None;
};

/** Builds a run's requests (GPU-resident, not yet hosted) in a
 *  harness, given the scheduler's token quantum. */
using MakeRequests = std::function<std::vector<workload::Request*>(
    SchedulerHarness&, TokenCount)>;

/**
 * Drives @p sched through the engine's boundary protocol on a pool of
 * @p capacity tokens: run @p before_boundary (if set) with the
 * boundary's index, reuse the last plan if reusePlan() allows, else
 * build, apply its swaps, then run the decode batch one token and
 * report it. The requests are long enough that none finishes or
 * leaves its phase.
 */
std::vector<Boundary>
driveDecodeRun(core::IntraScheduler& sched, const MakeRequests& make,
               int boundaries, TokenCount capacity,
               const std::function<void(int)>& before_boundary = {})
{
    SchedulerHarness h(capacity, &sched);
    const TokenCount quantum = sched.schedLimits().quantum;
    sched.enableIncremental();
    std::vector<workload::Request*> reqs = make(h, quantum);
    for (auto* r : reqs)
        sched.add(r);
    core::IterationPlan plan;
    std::vector<Boundary> run;
    for (int b = 0; b < boundaries; ++b) {
        if (before_boundary)
            before_boundary(b);
        Boundary rec;
        rec.reused = sched.reusePlan(plan, h.pool);
        rec.decline = sched.lastReuseDecline();
        if (!rec.reused)
            sched.buildPlan(h.pool, plan);
        EXPECT_TRUE(plan.prefill.empty() && plan.prewarm.empty());
        for (auto* r : plan.swapOut)
            h.swapOut(r);
        for (auto* r : plan.swapIn) {
            h.pool.moveToGpu(r->kvSlot);
            r->exec = workload::ExecState::ResidentGpu;
            sched.noteResidency(r);
        }
        for (const auto* r : plan.decode)
            rec.decode.push_back(r->id());
        for (const auto* r : reqs)
            rec.demoted.push_back(r->demoted);
        for (auto* r : plan.decode)
            h.decodeTokens(r, 1, static_cast<Time>(b), quantum);
        run.push_back(rec);
    }
    return run;
}

/**
 * Runs @p make on a fast scheduler and on its force-resort twin (both
 * from @p build, on a pool of @p capacity tokens) and expects every
 * boundary to match. The twin's batch
 * must change at some boundary inside a reuse streak of the fast run
 * (new order, or a demotion), and the fast run must decline there for
 * @p why.
 */
void
expectReuseDeclinesLikeTwin(
    const std::function<std::unique_ptr<core::IntraScheduler>(
        core::SchedLimits)>& build,
    core::SchedLimits limits, const MakeRequests& make,
    core::PlanDecline why, TokenCount capacity = 1 << 20)
{
    constexpr int kBoundaries = 16;
    limits.forceResort = false;
    auto fast_sched = build(limits);
    auto fast = driveDecodeRun(*fast_sched, make, kBoundaries, capacity);
    limits.forceResort = true;
    auto twin_sched = build(limits);
    auto twin = driveDecodeRun(*twin_sched, make, kBoundaries, capacity);

    int changed_at = -1;
    for (int b = 0; b < kBoundaries; ++b) {
        SCOPED_TRACE("boundary " + std::to_string(b));
        EXPECT_EQ(fast[b].decode, twin[b].decode);
        EXPECT_EQ(fast[b].demoted, twin[b].demoted);
        EXPECT_FALSE(twin[b].reused);
        if (changed_at < 0 && b > 0 &&
            (twin[b].decode != twin[b - 1].decode ||
             twin[b].demoted != twin[b - 1].demoted)) {
            changed_at = b;
        }
    }
    ASSERT_GT(changed_at, 1) << "the twin's batch never changed";
    if (fastPathForcedOff())
        return;
    EXPECT_TRUE(fast[changed_at - 1].reused);
    EXPECT_FALSE(fast[changed_at].reused);
    EXPECT_EQ(fast[changed_at].decline, why);
}

TEST_F(PlanReuseFastPath, ClampTieReorderDeclines)
{
    // Profile served lengths (10 reasoning, 5 answering): a request
    // that has outlived the reasoning median predicts max(., 1) + 5.
    // b clamps first and runs ahead of a; once a clamps too they tie,
    // and the earlier arrival (a) takes the lead.
    predict::DatasetProfilePredictor profile(0.5, 1);
    workload::RequestSpec spec;
    spec.id = 99;
    spec.promptTokens = 8;
    spec.reasoningTokens = 10;
    spec.answerTokens = 5;
    profile.observeCompletion(workload::Request(spec));

    expectReuseDeclinesLikeTwin(
        [&](core::SchedLimits limits) {
            auto s = std::make_unique<core::SrptScheduler>(limits);
            s->setPredictor(&profile);
            return std::unique_ptr<core::IntraScheduler>(std::move(s));
        },
        core::SchedLimits{},
        [](SchedulerHarness& h, TokenCount quantum) {
            auto* a = h.make(1, 0.0, 32, 400, 50);
            auto* b = h.make(2, 1.0, 32, 400, 50);
            h.makeResident(a, quantum);
            h.makeResident(b, quantum);
            h.decodeTokens(a, 4, 0.0, quantum); // Key 10.
            h.decodeTokens(b, 7, 0.0, quantum); // Key 7.
            return std::vector<workload::Request*>{a, b};
        },
        core::PlanDecline::StateChanged);
}

/** Ranks a request by id, plus 1000 once it has generated 13 tokens:
 *  a running key that rises, which no shipped predictor does between
 *  version bumps. */
class RisingKeyPredictor : public predict::LengthPredictor
{
  public:
    std::string name() const override { return "rising"; }

    double
    predictRemainingTokens(const workload::Request& req) const override
    {
        return static_cast<double>(req.id()) +
               (req.generated() >= 13 ? 1000.0 : 0.0);
    }

    double
    predictRemainingReasoningTokens(
        const workload::Request& req) const override
    {
        (void)req;
        return 0.0;
    }
};

TEST_F(PlanReuseFastPath, RisingKeyDeclines)
{
    // b and a fill the 300-token pool, and the swapped-out x (key
    // 1001) waits behind them. When a's key rises past x's, the walk
    // swaps x in and a out; a already ran last, so the member order
    // cannot tell.
    RisingKeyPredictor rising;
    expectReuseDeclinesLikeTwin(
        [&](core::SchedLimits limits) {
            auto s = std::make_unique<core::SrptScheduler>(limits);
            s->setPredictor(&rising);
            return std::unique_ptr<core::IntraScheduler>(std::move(s));
        },
        core::SchedLimits{},
        [](SchedulerHarness& h, TokenCount quantum) {
            auto* x = h.make(1, 0.0, 99, 400, 50);
            auto* b = h.make(2, 1.0, 99, 400, 50);
            auto* a = h.make(3, 2.0, 99, 400, 50);
            h.makeResident(x, quantum);
            h.decodeTokens(x, 12, 0.0, quantum); // KV 112, key 1001.
            h.swapOut(x);
            h.makeResident(b, quantum);         // KV 100, key 2.
            h.makeResident(a, quantum);
            h.decodeTokens(a, 9, 0.0, quantum); // KV 109, key 3.
            return std::vector<workload::Request*>{x, b, a};
        },
        core::PlanDecline::StateChanged, 300);
}

TEST_F(PlanReuseFastPath, NoisyOracleReorderDeclines)
{
    // Keys are factor x remaining, so the member with the larger noise
    // factor falls faster and overtakes one it started just behind.
    predict::NoisyOraclePredictor noisy(0.5, 7);
    RequestId fast_id = 1;
    RequestId slow_id = 2;
    while (noisy.noiseFactor(fast_id) < 1.5 * noisy.noiseFactor(slow_id))
        ++fast_id;
    const double f_fast = noisy.noiseFactor(fast_id);
    const double f_slow = noisy.noiseFactor(slow_id);
    // Behind by between one and two f_fast, so the first reuse still
    // holds and the overtake follows within a few tokens.
    const auto fast_left =
        static_cast<TokenCount>(f_slow * 400.0 / f_fast) + 2;

    expectReuseDeclinesLikeTwin(
        [&](core::SchedLimits limits) {
            auto s = std::make_unique<core::SrptScheduler>(limits);
            s->setPredictor(&noisy);
            return std::unique_ptr<core::IntraScheduler>(std::move(s));
        },
        core::SchedLimits{},
        [&](SchedulerHarness& h, TokenCount quantum) {
            auto* a = h.make(fast_id, 0.0, 32, 0, fast_left, true);
            auto* b = h.make(slow_id, 1.0, 32, 0, 400, true);
            h.makeResident(a, quantum);
            h.makeResident(b, quantum);
            return std::vector<workload::Request*>{a, b};
        },
        core::PlanDecline::StateChanged);
}

TEST_F(PlanReuseFastPath, LookaheadDemotionDeclines)
{
    // a reasons toward a 2064-token KV, far past the 600 threshold:
    // PASCAL-Spec demotes it the moment its KV enters the 128-token
    // lookahead window (KV 473), mid-way through a run of reused
    // plans, which moves it behind the answering request c.
    predict::OraclePredictor oracle;
    core::SchedLimits limits;
    limits.quantum = 100000; // No rollover inside the run.
    limits.demoteThresholdTokens = 600;
    limits.demoteLookaheadTokens = 128;

    expectReuseDeclinesLikeTwin(
        [&](core::SchedLimits l) {
            auto s = std::make_unique<core::PascalSpecScheduler>(l);
            s->setPredictor(&oracle);
            return std::unique_ptr<core::IntraScheduler>(std::move(s));
        },
        limits,
        [](SchedulerHarness& h, TokenCount quantum) {
            auto* a = h.make(1, 0.0, 64, 2000, 50);
            auto* b = h.make(2, 1.0, 64, 300, 50);
            auto* c = h.make(3, 2.0, 64, 0, 500, true);
            for (auto* r : {a, b, c})
                h.makeResident(r, quantum);
            h.decodeTokens(a, 403, 0.0, quantum); // KV 468.
            return std::vector<workload::Request*>{a, b, c};
        },
        core::PlanDecline::Veto);
}

/** A finished request of dataset @p dataset (prompt 8) for the
 *  profile predictor to observe. */
workload::Request
completion(RequestId id, workload::DatasetId dataset,
           TokenCount reasoning)
{
    workload::RequestSpec spec;
    spec.id = id;
    spec.promptTokens = 8;
    spec.reasoningTokens = reasoning;
    spec.answerTokens = 50;
    return workload::Request(spec, dataset);
}

constexpr int kBumpBoundaries = 12;
constexpr int kBump = 6;

/**
 * SRPT and PASCAL-Spec, each over its own profile predictor (served
 * reasoning 100 and answer 50 for datasets 0 and 1), run a decode batch
 * of two with a third request idle behind it, fast and as the
 * force-resort twin. Before boundary kBump both predictors observe a
 * 300-token reasoning completion of dataset 0, so the served median of
 * dataset 0 rises to 200: every key of a dataset-0 request shifts up
 * by 100. The twin builds at every boundary, and the fast run must
 * match it everywhere; the fast run is returned.
 *
 * a (dataset 0) has 10 tokens, b (dataset 0) 5 and c (@p c_dataset)
 * 1, so the keys start at 140 < 145 < 149 and a, b run. With c in
 * dataset 0 the shift keeps the order; with c in dataset 1, c (149)
 * overtakes both runners (about 230).
 */
std::vector<Boundary>
expectBumpMatchesTwin(bool pascal_spec, workload::DatasetId c_dataset)
{
    std::vector<Boundary> runs[2];
    for (const bool force : {false, true}) {
        predict::DatasetProfilePredictor profile(0.5, 1);
        profile.observeCompletion(completion(90, 0, 100));
        profile.observeCompletion(completion(91, 1, 100));
        core::SchedLimits limits;
        limits.maxBatchSize = 2;
        limits.forceResort = force;
        std::unique_ptr<core::IntraScheduler> sched;
        if (pascal_spec) {
            sched = std::make_unique<core::PascalSpecScheduler>(limits);
        } else {
            sched = std::make_unique<core::SrptScheduler>(limits);
        }
        sched->setPredictor(&profile);
        runs[force] = driveDecodeRun(
            *sched,
            [&](SchedulerHarness& h, TokenCount quantum) {
                auto* a = h.make(1, 0.0, 32, 400, 50);
                auto* b = h.make(2, 1.0, 32, 400, 50);
                auto* c = h.make(3, 2.0, 32, 400, 50);
                a->datasetId = 0;
                b->datasetId = 0;
                c->datasetId = c_dataset;
                for (auto* r : {a, b, c})
                    h.makeResident(r, quantum);
                h.decodeTokens(a, 9, 0.0, quantum);
                h.decodeTokens(b, 4, 0.0, quantum);
                return std::vector<workload::Request*>{a, b, c};
            },
            kBumpBoundaries, 1 << 20, [&](int b) {
                if (b != kBump)
                    return;
                const std::uint64_t before = profile.version();
                profile.observeCompletion(completion(92, 0, 300));
                ASSERT_GT(profile.version(), before);
            });
    }
    for (int b = 0; b < kBumpBoundaries; ++b) {
        SCOPED_TRACE("boundary " + std::to_string(b));
        EXPECT_EQ(runs[0][b].decode, runs[1][b].decode);
        EXPECT_FALSE(runs[1][b].reused);
    }
    // The batch reused its plan right up to the bump.
    if (!fastPathForcedOff()) {
        for (int b = 1; b < kBump; ++b)
            EXPECT_TRUE(runs[0][b].reused) << "boundary " << b;
    }
    return runs[0];
}

TEST_F(PlanReuseFastPath, VersionBumpKeepingTheOrderReusesThePlan)
{
    for (const bool pascal_spec : {false, true}) {
        SCOPED_TRACE(pascal_spec ? "PASCAL-Spec" : "SRPT");
        const auto fast = expectBumpMatchesTwin(pascal_spec, 0);
        EXPECT_EQ(fast[kBump].decode, (std::vector<RequestId>{1, 2}));
        if (fastPathForcedOff())
            continue;
        // Every queue kept its order, so the plan stands: it equals
        // the twin's fresh build at the same boundary (checked above).
        // The refreshed member keys let the reuses run on.
        EXPECT_EQ(fast[kBump].decline, core::PlanDecline::None);
        for (int b = kBump; b < kBumpBoundaries; ++b)
            EXPECT_TRUE(fast[b].reused) << "boundary " << b;
    }
}

TEST_F(PlanReuseFastPath, VersionBumpReorderingMembersBuilds)
{
    for (const bool pascal_spec : {false, true}) {
        SCOPED_TRACE(pascal_spec ? "PASCAL-Spec" : "SRPT");
        const auto fast = expectBumpMatchesTwin(pascal_spec, 1);
        EXPECT_EQ(fast[kBump - 1].decode, (std::vector<RequestId>{1, 2}));
        EXPECT_EQ(fast[kBump].decode, (std::vector<RequestId>{3, 1}));
        if (fastPathForcedOff())
            continue;
        EXPECT_FALSE(fast[kBump].reused);
        EXPECT_EQ(fast[kBump].decline, core::PlanDecline::StateChanged);
    }
}

TEST_F(PlanReuseFastPath, DemotedZeroQuantaReasonerCountsFreshAtThinkEnd)
{
    // A reasoning request demoted with its quantum just reset reaches
    // </think> before its first low-queue rollover: it enters the
    // answering phase with 0 quanta, so a_i rises on that very token,
    // and r_i, which stopped counting it at the demotion, holds.
    core::SchedLimits limits;
    limits.quantum = 50;
    limits.demoteThresholdTokens = 200;
    core::PascalScheduler sched(limits);
    sched.enableIncremental();
    SchedulerHarness h(100000, &sched);
    auto* r = h.make(0, 0.0, 64, 150, 20);
    sched.add(r);
    h.makeResident(r, limits.quantum);
    h.decodeLikeEngine(r, 136, 0.0, limits.quantum); // KV 201.
    EXPECT_EQ(sched.numReasoning(), 1);

    core::IterationPlan plan;
    sched.buildPlan(h.pool, plan);
    ASSERT_TRUE(r->demoted);
    EXPECT_EQ(r->quantaConsumed, 0);
    EXPECT_EQ(sched.numReasoning(), 0);
    EXPECT_EQ(sched.numFreshAnswering(), 0);

    while (r->generated() + 1 < r->spec().reasoningTokens) {
        h.decodeLikeEngine(r, 1, 1.0, limits.quantum);
        ASSERT_EQ(sched.numFreshAnswering(), 0) << r->generated();
        ASSERT_EQ(sched.numReasoning(), 0) << r->generated();
    }
    h.decodeLikeEngine(r, 1, 2.0, limits.quantum); // </think>.
    ASSERT_EQ(r->phase(), workload::Phase::Answering);
    EXPECT_EQ(r->quantaConsumed, 0);
    EXPECT_EQ(sched.numFreshAnswering(), 1);
    EXPECT_EQ(sched.numReasoning(), 0);
}

/** Ranks a request by id; predicts no reasoning left until it has
 *  generated 430 tokens, then 10000. */
class LateDoomPredictor : public predict::LengthPredictor
{
  public:
    std::string name() const override { return "late-doom"; }

    double
    predictRemainingTokens(const workload::Request& req) const override
    {
        return static_cast<double>(req.id());
    }

    double
    predictRemainingReasoningTokens(
        const workload::Request& req) const override
    {
        return req.generated() >= 430 ? 10000.0 : 0.0;
    }
};

TEST_F(PlanReuseFastPath, LookaheadWindowRechecksEveryBoundary)
{
    // a enters PASCAL-Spec's 128-token lookahead window at KV 473
    // (token 409), but its prediction first dooms it at token 430,
    // 21 boundaries later, with the predictor version unchanged. Only
    // a re-check at every boundary inside the window demotes it
    // there; a scheduler told of every token and one told the way the
    // engine tells it must demote at the same boundary, on equal
    // plans.
    LateDoomPredictor doom;
    core::SchedLimits limits;
    limits.quantum = 100000; // No rollover inside the run.
    limits.demoteThresholdTokens = 600;
    limits.demoteLookaheadTokens = 128;
    constexpr int kBoundaries = 40;

    std::vector<Boundary> runs[2];
    std::vector<int> demoted_at;
    for (const bool per_token : {true, false}) {
        core::PascalSpecScheduler sched(limits);
        sched.setPredictor(&doom);
        sched.enableIncremental();
        SchedulerHarness h(1 << 20, &sched);
        auto* a = h.make(1, 0.0, 64, 2000, 50);
        auto* b = h.make(2, 1.0, 64, 3000, 50);
        for (auto* r : {a, b})
            h.makeResident(r, limits.quantum);
        h.decodeTokens(a, 399, 0.0, limits.quantum); // KV 464.
        sched.add(a);
        sched.add(b);
        core::IterationPlan plan;
        int at = -1;
        for (int k = 0; k < kBoundaries; ++k) {
            Boundary rec;
            rec.reused = sched.reusePlan(plan, h.pool);
            if (!rec.reused)
                sched.buildPlan(h.pool, plan);
            for (const auto* r : plan.decode)
                rec.decode.push_back(r->id());
            if (at < 0 && a->demoted)
                at = k;
            for (auto* r : plan.decode) {
                if (per_token)
                    h.decodeTokens(r, 1, static_cast<Time>(k),
                                   limits.quantum);
                else
                    h.decodeLikeEngine(r, 1, static_cast<Time>(k),
                                       limits.quantum);
            }
            runs[per_token].push_back(rec);
        }
        demoted_at.push_back(at);
    }
    EXPECT_EQ(demoted_at[0], 30); // Token 430 was emitted by then.
    EXPECT_EQ(demoted_at[1], demoted_at[0]);
    for (int k = 0; k < kBoundaries; ++k) {
        SCOPED_TRACE("boundary " + std::to_string(k));
        EXPECT_EQ(runs[0][k].decode, runs[1][k].decode);
        EXPECT_EQ(runs[0][k].reused, runs[1][k].reused);
    }
}

TEST_F(PlanReuseFastPath, MigrantRollsOverOnItsNewHost)
{
    // m leaves a source whose quantum is far off mid-quantum and lands
    // on a host with a 10-token quantum, where the earlier arrival b
    // has used one quantum. m runs first (fewer quanta), and after 10
    // tokens it ties b on quanta and yields to it. Whatever the source
    // last knew about m must not hide that rollover from the new
    // host: the run must match the force-resort twin's.
    constexpr int kBoundaries = 25;
    std::vector<RequestId> order[2];
    for (const bool force : {false, true}) {
        core::SchedLimits source_limits;
        source_limits.quantum = 1000;
        core::RrScheduler source(source_limits);
        source.enableIncremental();
        SchedulerHarness src(1 << 20, &source);

        core::SchedLimits limits;
        limits.quantum = 10;
        limits.maxBatchSize = 1;
        limits.forceResort = force;
        core::RrScheduler target(limits);
        target.enableIncremental();
        SchedulerHarness dst(1 << 20, &target);

        auto* b = dst.make(1, 0.0, 32, 0, 500, true);
        target.add(b);
        dst.makeResident(b, limits.quantum);
        dst.decodeLikeEngine(b, 10, 0.0, limits.quantum);
        ASSERT_EQ(b->quantaConsumed, 1);

        auto* m = src.make(2, 1.0, 32, 0, 500, true);
        source.add(m);
        src.makeResident(m, source_limits.quantum);
        src.decodeLikeEngine(m, 7, 0.0, source_limits.quantum);
        source.remove(m);
        src.pool.release(m->kvSlot);
        m->resetQuantum();
        m->kvSlot = dst.pool.allocGpu(m->id(), m->kvTokens());
        target.add(m);

        core::IterationPlan plan;
        for (int k = 0; k < kBoundaries; ++k) {
            if (!target.reusePlan(plan, dst.pool))
                target.buildPlan(dst.pool, plan);
            ASSERT_EQ(plan.decode.size(), 1u);
            order[force].push_back(plan.decode[0]->id());
            dst.decodeLikeEngine(plan.decode[0], 1,
                                 static_cast<Time>(k), limits.quantum);
        }
    }
    EXPECT_EQ(order[0], order[1]);
    std::vector<RequestId> expect(kBoundaries, 2);
    for (int k = 10; k < 20; ++k)
        expect[k] = 1;
    EXPECT_EQ(order[0], expect);
}

/** One scheduler of a wake lockstep pair, with its own pool and its
 *  own copy of every request (indexed by id). */
struct LockstepSide
{
    LockstepSide(std::unique_ptr<core::IntraScheduler> s,
                 TokenCount capacity, std::size_t n)
        : sched(std::move(s)), h(capacity, sched.get()), reported(n, 0)
    {
        sched->enableIncremental();
    }

    /** Takes hosted @p r off the instance and lands it back, as a
     *  migration does: its KV leaves and returns (to the GPU if it
     *  fits) and its quantum restarts. */
    void
    migrate(workload::Request* r)
    {
        sched->remove(r);
        if (r->kvSlot != model::kNoKvSlot) {
            h.pool.release(r->kvSlot);
            r->kvSlot = model::kNoKvSlot;
        }
        r->resetQuantum();
        if (r->prefillDone) {
            const bool fits = h.pool.canAllocGpu(r->kvTokens());
            r->kvSlot = fits ? h.pool.allocGpu(r->id(), r->kvTokens())
                             : h.pool.allocCpu(r->id(), r->kvTokens());
            r->exec = fits ? workload::ExecState::ResidentGpu
                           : workload::ExecState::SwappedCpu;
        }
        sched->add(r);
    }

    /** Runs the plan in flight as the engine does, ending at @p now.
     *  The reference side reports every emission; the other reports
     *  a decode emission only at its wake token. */
    void
    execute(Time now, bool per_token)
    {
        const TokenCount quantum = sched->schedLimits().quantum;
        for (auto* r : plan.swapOut)
            h.swapOut(r);
        for (auto* r : plan.swapIn) {
            h.pool.moveToGpu(r->kvSlot);
            r->exec = workload::ExecState::ResidentGpu;
            sched->noteResidency(r);
        }
        for (auto* r : plan.prewarm) {
            r->kvSlot = h.pool.allocGpu(r->id(), r->spec().promptTokens);
            r->exec = workload::ExecState::ResidentGpu;
            r->prefillDone = true;
            sched->noteResidency(r);
        }
        for (auto* r : plan.prefill) {
            r->kvSlot =
                h.pool.allocGpu(r->id(), r->spec().promptTokens + 1);
            r->exec = workload::ExecState::ResidentGpu;
            sched->noteResidency(r);
            r->completePrefill(now, quantum);
            sched->noteExecuted(r);
            ++reported[r->id()];
        }
        for (auto* r : plan.decode) {
            if (per_token)
                h.decodeTokens(r, 1, now, quantum);
            else
                reported[r->id()] +=
                    h.decodeLikeEngine(r, 1, now, quantum);
        }
    }

    std::unique_ptr<core::IntraScheduler> sched;
    SchedulerHarness h;
    std::vector<workload::Request*> reqs;
    std::vector<int> reported; //!< noteExecuted() calls per request.
    core::IterationPlan plan;
};

std::vector<RequestId>
idsOf(const std::vector<workload::Request*>& list)
{
    std::vector<RequestId> ids;
    for (const auto* r : list)
        ids.push_back(r->id());
    return ids;
}

/** How often each kind of event fired in a lockstep run. */
struct LockstepEvents
{
    int swaps = 0;
    int flips = 0;
    int migrations = 0;
    int demotions = 0;
    std::uint64_t reuses = 0;
};

/**
 * Drives two schedulers of one policy through a random trace in
 * lockstep: the reference is told of every emission, the other only
 * at its wake tokens. Arrivals, swaps, </think> flips (staying home or
 * migrating), random mid-quantum migrations and demotions all fire.
 * At every boundary both must reuse or build alike and agree on the
 * plan, the monitor counters, and each request's queue tag and
 * demotion. Each request must be reported at most generated/quantum +
 * 4 + window times: its rollovers, prefill, </think>, completion and
 * the demotion rule's tokens (the lookahead window plus the crossing
 * token, in PASCAL's high queue).
 */
LockstepEvents
runWakeLockstep(
    const std::function<std::unique_ptr<core::IntraScheduler>(
        core::SchedLimits)>& build,
    TokenCount window, std::uint64_t seed)
{
    constexpr int kRequests = 48;
    constexpr int kMaxBoundaries = 20000;
    constexpr TokenCount kCapacity = 1200;
    core::SchedLimits limits;
    limits.quantum = 16;
    limits.maxBatchSize = 8;
    limits.demoteThresholdTokens = 200;
    limits.demoteLookaheadTokens = 24;

    Rng rng(seed);
    std::vector<workload::RequestSpec> specs;
    for (int i = 0; i < kRequests; ++i) {
        workload::RequestSpec spec;
        spec.id = static_cast<RequestId>(i);
        spec.arrival = static_cast<Time>(i * 3);
        spec.promptTokens = rng.uniformInt(16, 96);
        spec.startInAnswering = rng.bernoulli(0.15);
        spec.reasoningTokens =
            spec.startInAnswering ? 0 : rng.uniformInt(1, 320);
        spec.answerTokens = rng.uniformInt(1, 160);
        specs.push_back(spec);
    }

    LockstepSide sides[2] = {{build(limits), kCapacity, specs.size()},
                             {build(limits), kCapacity, specs.size()}};
    LockstepSide& ref = sides[0];
    LockstepEvents events;
    std::size_t arrived = 0;
    int boundary = 0;
    for (; boundary < kMaxBoundaries; ++boundary) {
        const Time now = static_cast<Time>(boundary + 1);
        while (arrived < specs.size() &&
               specs[arrived].arrival <= static_cast<Time>(boundary)) {
            const auto& spec = specs[arrived];
            for (auto& side : sides) {
                auto* r = side.h.make(spec.id, spec.arrival,
                                      spec.promptTokens,
                                      spec.reasoningTokens,
                                      spec.answerTokens,
                                      spec.startInAnswering);
                side.reqs.push_back(r);
                side.sched->add(r);
            }
            ++arrived;
        }
        if (arrived == specs.size() && ref.sched->hosted().empty())
            break;
        if (rng.bernoulli(0.05)) {
            const std::size_t id = rng.pickIndex(ref.reqs.size());
            if (ref.sched->isHosted(ref.reqs[id])) {
                for (auto& side : sides)
                    side.migrate(side.reqs[id]);
                ++events.migrations;
            }
        }

        SCOPED_TRACE("boundary " + std::to_string(boundary));
        bool reused[2];
        for (int s = 0; s < 2; ++s) {
            reused[s] = sides[s].sched->reusePlan(sides[s].plan,
                                                  sides[s].h.pool);
            if (!reused[s])
                sides[s].sched->buildPlan(sides[s].h.pool, sides[s].plan);
        }
        const auto& p0 = sides[0].plan;
        const auto& p1 = sides[1].plan;
        EXPECT_EQ(reused[0], reused[1]);
        EXPECT_EQ(idsOf(p0.decode), idsOf(p1.decode));
        EXPECT_EQ(idsOf(p0.prefill), idsOf(p1.prefill));
        EXPECT_EQ(idsOf(p0.prewarm), idsOf(p1.prewarm));
        EXPECT_EQ(idsOf(p0.swapIn), idsOf(p1.swapIn));
        EXPECT_EQ(idsOf(p0.swapOut), idsOf(p1.swapOut));
        EXPECT_EQ(sides[0].sched->numReasoning(),
                  sides[1].sched->numReasoning());
        EXPECT_EQ(sides[0].sched->numFreshAnswering(),
                  sides[1].sched->numFreshAnswering());
        for (std::size_t id = 0; id < ref.reqs.size(); ++id) {
            const auto* a = sides[0].reqs[id];
            const auto* b = sides[1].reqs[id];
            EXPECT_EQ(a->schedQueueTag, b->schedQueueTag) << "id " << id;
            EXPECT_EQ(a->demoted, b->demoted) << "id " << id;
        }
        if (::testing::Test::HasFailure())
            return events; // One divergence floods every later step.
        events.reuses += reused[0] ? 1 : 0;
        events.swaps += static_cast<int>(p0.swapOut.size());
        std::vector<workload::Request*> members = p0.prefill;
        members.insert(members.end(), p0.decode.begin(), p0.decode.end());

        sides[0].execute(now, /*per_token=*/true);
        sides[1].execute(now, /*per_token=*/false);
        // The engine's callbacks read the counters before it removes
        // the step's finished members.
        EXPECT_EQ(sides[0].sched->numReasoning(),
                  sides[1].sched->numReasoning());
        EXPECT_EQ(sides[0].sched->numFreshAnswering(),
                  sides[1].sched->numFreshAnswering());

        // Completions and </think> flips, as the engine settles them.
        for (const auto* m : members) {
            const RequestId id = m->id();
            if (m->finished()) {
                for (auto& side : sides) {
                    auto* r = side.reqs[id];
                    side.h.pool.release(r->kvSlot);
                    r->kvSlot = model::kNoKvSlot;
                    r->exec = workload::ExecState::Done;
                    side.sched->remove(r);
                }
            } else if (!m->spec().startInAnswering &&
                       m->reasoningEnd == now) {
                const bool stay = rng.bernoulli(0.5);
                for (auto& side : sides) {
                    if (stay)
                        side.sched->onPhaseTransition(side.reqs[id]);
                    else
                        side.migrate(side.reqs[id]);
                }
                ++events.flips;
                events.migrations += stay ? 0 : 1;
            }
        }
    }
    EXPECT_LT(boundary, kMaxBoundaries) << "the trace never drained";

    for (const auto* r : ref.reqs)
        events.demotions += r->demoted ? 1 : 0;
    if (fastPathForcedOff())
        return events; // The twins ignore every notification.
    const TokenCount quantum = ref.sched->schedLimits().quantum;
    for (const auto* r : sides[1].reqs) {
        const TokenCount g = r->generated();
        const TokenCount bound =
            (quantum > 0 ? g / quantum : 0) + 4 + window;
        EXPECT_LE(sides[1].reported[r->id()], bound)
            << "request " << r->id() << " generated " << g;
    }
    return events;
}

TEST_F(PlanReuseFastPath, WakeTokensMatchPerTokenNotification)
{
    struct Policy
    {
        const char* name;
        std::function<std::unique_ptr<core::IntraScheduler>(
            core::SchedLimits)>
            build;
        TokenCount window; //!< Demotion window (0: none).
        bool demotes;
    };
    for (const char* kind : {"oracle", "noisy"}) {
        predict::OraclePredictor oracle;
        predict::NoisyOraclePredictor noisy(0.50, 11);
        const predict::LengthPredictor* pred =
            std::string(kind) == "oracle"
                ? static_cast<const predict::LengthPredictor*>(&oracle)
                : &noisy;
        auto wired = [pred](std::unique_ptr<core::IntraScheduler> s) {
            s->setPredictor(pred);
            return s;
        };
        const Policy policies[] = {
            {"FCFS",
             [&](core::SchedLimits l) {
                 return wired(std::make_unique<core::FcfsScheduler>(l));
             },
             0, false},
            {"RR",
             [&](core::SchedLimits l) {
                 return wired(std::make_unique<core::RrScheduler>(l));
             },
             0, false},
            {"SRPT",
             [&](core::SchedLimits l) {
                 return wired(std::make_unique<core::SrptScheduler>(l));
             },
             0, false},
            {"PASCAL",
             [&](core::SchedLimits l) {
                 return wired(std::make_unique<core::PascalScheduler>(l));
             },
             0, true},
            {"PASCAL-Spec",
             [&](core::SchedLimits l) {
                 return wired(
                     std::make_unique<core::PascalSpecScheduler>(l));
             },
             24, true},
        };
        for (const Policy& policy : policies) {
            LockstepEvents total;
            for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
                SCOPED_TRACE(std::string(policy.name) + " " + kind +
                             " seed " + std::to_string(seed));
                const LockstepEvents e =
                    runWakeLockstep(policy.build, policy.window, seed);
                total.swaps += e.swaps;
                total.flips += e.flips;
                total.migrations += e.migrations;
                total.demotions += e.demotions;
                total.reuses += e.reuses;
            }
            SCOPED_TRACE(std::string(policy.name) + " " + kind);
            EXPECT_GT(total.swaps, 0);
            EXPECT_GT(total.flips, 0);
            EXPECT_GT(total.migrations, 0);
            if (policy.demotes) {
                EXPECT_GT(total.demotions, 0);
            }
            if (!fastPathForcedOff()) {
                EXPECT_GT(total.reuses, 0u);
            }
        }
    }
}

} // namespace
