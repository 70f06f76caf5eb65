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
 * engagement itself: reactive policies run incremental queues, while
 * predictor-keyed SRPT and PASCAL-Spec build in recompute mode and
 * reuse a plan only while the predictor version holds and the batch
 * keeps its order. Scripted decode runs pin the ways such a batch
 * stops being the walk's answer (a tie at the profile's clamp, unequal
 * noise factors, a lookahead demotion, a rising key): each must
 * decline.
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
#include "src/core/pascal_scheduler.hh"
#include "src/core/pascal_spec_scheduler.hh"
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
        EXPECT_GT(fast.totalMigrations, 0u);
    }
}

TEST_F(PlanReuseInvariance, EvictionStormTailStaysByteIdentical)
{
    // Swap-thrashing regime: the incremental walk reads maintained
    // queues and exits early once the batch is full and every KV
    // holder has been seen — the evicted set and swap-out sequence
    // must still match the recompute walk exactly, every iteration.
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
    // SRPT and PASCAL-Spec build in recompute mode; forceResort makes
    // them sort from scratch instead of warm-starting from the last
    // sort, and never reuse a plan, which must not change a byte.
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
    // SRPT and PASCAL-Spec never maintain queues, but between
    // predictor changes a running member's key only falls and an idle
    // request's key holds, so their plans are reused. Wiring a
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
        for (const auto& inst : ctx.cluster().getInstances())
            EXPECT_EQ(inst->scheduler().incrementalEnabled(), !c.keyed);
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
 * @p capacity tokens: reuse the last plan if reusePlan() allows, else
 * build, apply its swaps, then run the decode batch one token and
 * report it. The requests are long enough that none finishes or
 * leaves its phase.
 */
std::vector<Boundary>
driveDecodeRun(core::IntraScheduler& sched, const MakeRequests& make,
               int boundaries, TokenCount capacity)
{
    SchedulerHarness h(capacity);
    const TokenCount quantum = sched.schedLimits().quantum;
    sched.enableIncremental();
    std::vector<workload::Request*> reqs = make(h, quantum);
    for (auto* r : reqs)
        sched.add(r);
    core::IterationPlan plan;
    std::vector<Boundary> run;
    for (int b = 0; b < boundaries; ++b) {
        Boundary rec;
        rec.reused = sched.reusePlan(plan, h.pool);
        rec.decline = sched.lastReuseDecline();
        if (!rec.reused)
            sched.buildPlan(h.pool, plan);
        EXPECT_TRUE(plan.prefill.empty() && plan.prewarm.empty());
        for (auto* r : plan.swapOut) {
            h.swapOut(r);
            sched.noteResidency(r);
        }
        for (auto* r : plan.swapIn) {
            h.pool.moveToGpu(r->kvSlot);
            r->exec = workload::ExecState::ResidentGpu;
            sched.noteResidency(r);
        }
        for (const auto* r : plan.decode)
            rec.decode.push_back(r->id());
        for (const auto* r : reqs)
            rec.demoted.push_back(r->demoted);
        for (auto* r : plan.decode) {
            h.decodeTokens(r, 1, static_cast<Time>(b), quantum);
            sched.noteExecuted(r);
        }
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

} // namespace
