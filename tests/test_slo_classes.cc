/**
 * @file
 * Multi-tenant SLO-class subsystem tests (ROADMAP item 4).
 *
 * Three families:
 *  - Dormancy: with cfg.sloClasses.enabled == false, class-annotated
 *    traces and fully-parameterized (but disabled) class configs are
 *    byte-invisible — runs match a classless run across the whole
 *    force-mode matrix, under the chaos fault schedule.
 *  - Behavior: with classes on, Interactive is scheduled ahead of
 *    Batch, deadlines terminally fail (or demote) expired work with
 *    the KV reclaimed, admission sheds infeasible arrivals, and the
 *    per-class outcome counters satisfy totality.
 *  - GoodputSemantics: pins RunResult::goodputFraction's denominator
 *    semantics (shed and terminally-failed requests stay in the
 *    denominator; only fully-completed requests — including demoted
 *    best-effort ones — count in the numerator). Referenced by the
 *    doc comment in src/cluster/serving_system.hh.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/qoe/metrics.hh"
#include "src/workload/generator.hh"
#include "tests/run_result_util.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::RunContext;
using cluster::RunResult;
using cluster::SchedulerType;
using cluster::SystemConfig;
using workload::SloClass;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using ClassDormancy = QuietLogs;
using ClassBehavior = QuietLogs;
using GoodputSemantics = QuietLogs;

/** Bursty arrival-storm trace (the chaos harness's regime). */
workload::Trace
stormTrace(std::uint64_t seed, int n = 120, double rate = 300.0,
           double tick = 0.02)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {80.0, 0.5, 32, 192};
    profile.reasoning = {160.0, 0.7, 24, 700};
    profile.answering = {70.0, 0.6, 16, 300};
    auto trace = workload::generateTrace(profile, n, rate, rng);
    for (auto& spec : trace.requests) {
        spec.arrival =
            tick * static_cast<double>(
                       static_cast<std::int64_t>(spec.arrival / tick));
    }
    return trace;
}

/** Tight fault-free 2-instance deployment: overload forms queues, so
 *  class priority and deadline pressure are observable. */
SystemConfig
tightConfig(SchedulerType sched = SchedulerType::Pascal)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = 8192;
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 700;
    return cfg;
}

/** The chaos deployment from tests/test_chaos.cc: aggressive fault
 *  schedule on 3 tight instances. */
SystemConfig
chaosConfig(std::uint64_t fault_seed)
{
    SystemConfig cfg = tightConfig();
    cfg.numInstances = 3;
    cfg.fault.enabled = true;
    cfg.fault.seed = fault_seed;
    cfg.fault.crashRate = 0.3;
    cfg.fault.mttr = 1.5;
    cfg.fault.decommissionRate = 0.1;
    cfg.fault.drainGrace = 0.8;
    cfg.fault.stragglerRate = 0.2;
    cfg.fault.stragglerFactor = 3.0;
    cfg.fault.stragglerDuration = 1.0;
    cfg.fault.linkFailureProb = 0.2;
    cfg.fault.retryBudget = 4;
    cfg.fault.backoffBase = 0.1;
    cfg.fault.backoffCap = 1.0;
    return cfg;
}

qoe::SloClassParams&
params(SystemConfig& cfg, SloClass c)
{
    return cfg.sloClasses.classes[workload::sloClassIndex(c)];
}

/** Apply one force-mode matrix corner (same bit layout as the chaos
 *  and arrival-burst matrices). */
void
applyForceMask(SystemConfig& cfg, int mask)
{
    cfg.limits.forceResort = (mask & 1) != 0;
    cfg.limits.forceAccrue = (mask & 2) != 0;
}

/** Strip class-derived annotations so an annotated-trace run can be
 *  byte-compared against a classless run of the same workload: the
 *  spec's class column rides into RequestMetrics rows (and their
 *  per-class rollup) even when the subsystem is dormant, but must
 *  influence nothing else. */
RunResult
stripClassAnnotations(RunResult r)
{
    for (auto& row : r.perRequest)
        row.sloClass = SloClass::Standard;
    r.classAggregates = r.perRequest.empty()
                            ? decltype(r.classAggregates){}
                            : qoe::aggregateByClass(r.perRequest);
    return r;
}

/** Per-class totality audit: counters reconcile with the per-request
 *  rows and with the run-level failure accounting. */
void
auditClassTotality(const RunResult& result)
{
    std::uint64_t submitted = 0, completed = 0, shed = 0;
    std::uint64_t deadline_failed = 0, retry_failed = 0;
    std::array<std::uint64_t, workload::kNumSloClasses> row_count{};
    std::array<std::uint64_t, workload::kNumSloClasses> row_done{};
    std::array<std::uint64_t, workload::kNumSloClasses> row_shed{};
    std::array<std::uint64_t, workload::kNumSloClasses> row_ddl{};
    std::array<std::uint64_t, workload::kNumSloClasses> row_retry{};
    for (const auto& row : result.perRequest) {
        auto ci = workload::sloClassIndex(row.sloClass);
        ++row_count[ci];
        if (row.finished)
            ++row_done[ci];
        if (row.failReason == workload::FailReason::Shed)
            ++row_shed[ci];
        else if (row.failReason ==
                 workload::FailReason::DeadlineExceeded)
            ++row_ddl[ci];
        else if (row.failed)
            ++row_retry[ci];
    }
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        const auto& out = result.perClass[c];
        SCOPED_TRACE("class " + std::to_string(c));
        EXPECT_EQ(out.submitted, row_count[c]);
        EXPECT_EQ(out.completed, row_done[c]);
        EXPECT_EQ(out.shed, row_shed[c]);
        EXPECT_EQ(out.deadlineFailed, row_ddl[c]);
        EXPECT_EQ(out.retryFailed, row_retry[c]);
        // Totality: every submitted request landed in exactly one
        // outcome bucket (the run drained, so nothing is still live).
        EXPECT_EQ(out.submitted, out.completed + out.shed +
                                     out.deadlineFailed +
                                     out.retryFailed);
        EXPECT_EQ(out.goodputFraction,
                  out.submitted == 0
                      ? 1.0
                      : static_cast<double>(out.completed) /
                            static_cast<double>(out.submitted));
        submitted += out.submitted;
        completed += out.completed;
        shed += out.shed;
        deadline_failed += out.deadlineFailed;
        retry_failed += out.retryFailed;
    }
    EXPECT_EQ(submitted, result.perRequest.size());
    EXPECT_EQ(completed, result.aggregate.numFinished);
    EXPECT_EQ(shed, result.numShed);
    EXPECT_EQ(shed + deadline_failed + retry_failed,
              result.numTerminalFailures);
}

/** No leaked KV once the event queue drains. */
void
expectNoKvLeaks(const RunContext& ctx)
{
    for (const auto& inst : ctx.cluster().getInstances()) {
        EXPECT_EQ(inst->pool().numTracked(), 0u)
            << "instance " << inst->id() << " leaked KV slots";
        EXPECT_EQ(inst->pool().gpuUsed(), 0)
            << "instance " << inst->id() << " leaked GPU KV tokens";
    }
}

TEST_F(ClassDormancy, AssignSloClassesIsDeterministicAndNonPerturbing)
{
    auto plain = stormTrace(1234, 400);
    auto annotated = plain;
    workload::assignSloClasses(annotated);
    auto again = plain;
    workload::assignSloClasses(again);

    ASSERT_EQ(annotated.size(), plain.size());
    std::array<int, workload::kNumSloClasses> histogram{};
    for (std::size_t i = 0; i < plain.size(); ++i) {
        const auto& p = plain.requests[i];
        const auto& a = annotated.requests[i];
        // Annotation touches ONLY the class column.
        EXPECT_EQ(a.id, p.id);
        EXPECT_EQ(a.arrival, p.arrival);
        EXPECT_EQ(a.promptTokens, p.promptTokens);
        EXPECT_EQ(a.reasoningTokens, p.reasoningTokens);
        EXPECT_EQ(a.answerTokens, p.answerTokens);
        // And it is a pure function of (seed, id).
        EXPECT_EQ(a.sloClass, again.requests[i].sloClass);
        ++histogram[workload::sloClassIndex(a.sloClass)];
    }
    // Default mix: 30/40/30 — every class must actually appear, and
    // roughly at its target share on 400 draws.
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c)
        EXPECT_GT(histogram[c], 400 / 10);

    // A different salt reshuffles the assignment.
    auto salted = plain;
    workload::SloMix mix;
    mix.seed = 0xdeadbeef;
    workload::assignSloClasses(salted, mix);
    int differs = 0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        if (salted.requests[i].sloClass !=
            annotated.requests[i].sloClass)
            ++differs;
    }
    EXPECT_GT(differs, 0);
}

TEST_F(ClassDormancy, AnnotatedTraceInvisibleWhenDisabled)
{
    // A class-annotated trace run with the subsystem disabled must be
    // byte-identical (modulo the pass-through class column in the
    // metrics rows) to the same workload with no annotations at all.
    auto plain = stormTrace(777, 100);
    auto annotated = plain;
    workload::assignSloClasses(annotated);

    SystemConfig cfg = tightConfig();
    ASSERT_FALSE(cfg.sloClasses.enabled);
    auto off_plain = RunContext::execute(cfg, plain);
    auto off_annotated = RunContext::execute(cfg, annotated);
    test::expectIdentical(stripClassAnnotations(off_plain),
                          stripClassAnnotations(off_annotated));

    // And the dormant counters stayed at zero.
    for (const auto& out : off_annotated.perClass) {
        EXPECT_EQ(out.submitted, 0u);
        EXPECT_EQ(out.completed, 0u);
        EXPECT_EQ(out.goodputFraction, 1.0);
    }
}

TEST_F(ClassDormancy, DisabledConfigByteIdenticalAcrossForceMatrix)
{
    // A fully-parameterized class config with enabled == false, on an
    // annotated trace, under the chaos fault schedule: every one of
    // the 4 force-mode corners must match the default-config run
    // byte-for-byte. This is the "classes-off is the pre-class
    // simulator" guarantee the acceptance criteria pin.
    auto trace = stormTrace(313, 100);
    workload::assignSloClasses(trace);
    SystemConfig base = chaosConfig(3);

    auto baseline = RunContext::execute(base, trace);
    EXPECT_GT(baseline.numCrashes, 0u);

    for (int mask = 0; mask < 4; ++mask) {
        SCOPED_TRACE("mode mask " + std::to_string(mask));
        SystemConfig cfg = base;
        applyForceMask(cfg, mask);
        // Hot knobs everywhere, master switch off: all dormant.
        cfg.sloClasses.enabled = false;
        params(cfg, SloClass::Interactive).relativeDeadline = 0.2;
        params(cfg, SloClass::Standard).relativeDeadline = 0.5;
        params(cfg, SloClass::Batch).shedKvFloor = 0.9;
        params(cfg, SloClass::Batch).shedUpFloor = 0.99;
        test::expectIdentical(baseline,
                              RunContext::execute(cfg, trace));
    }
}

TEST_F(ClassBehavior, ClassesOnForceMatrixByteIdenticalUnderChaos)
{
    // With the full class policy live (deadlines, demotion, overload
    // control) on top of the chaos fault schedule, the debug
    // recompute modes must still all agree: the class layer adds no
    // order-dependent state to any force-mode path.
    auto trace = stormTrace(911, 100);
    workload::assignSloClasses(trace);
    SystemConfig base = chaosConfig(5);
    base.sloClasses.enabled = true;
    params(base, SloClass::Interactive).relativeDeadline = 2.0;
    params(base, SloClass::Standard).relativeDeadline = 6.0;

    std::vector<RunResult> results;
    for (int mask = 0; mask < 4; ++mask) {
        SystemConfig cfg = base;
        applyForceMask(cfg, mask);
        results.push_back(RunContext::execute(cfg, trace));
    }
    EXPECT_GT(results[0].numCrashes, 0u);
    for (std::size_t i = 1; i < results.size(); ++i) {
        SCOPED_TRACE("mode mask " + std::to_string(i));
        test::expectIdentical(results[0], results[i]);
    }
    auditClassTotality(results[0]);
}

TEST_F(ClassBehavior, ChaosGridInvariantsAndReplay)
{
    // Classes on across a scheduler x predictor sample of the chaos
    // grid: per-class totality holds, nothing leaks, and a same-seed
    // replay is byte-identical including the class outcome tables.
    auto trace = stormTrace(4242, 120);
    workload::assignSloClasses(trace);

    struct GridPoint
    {
        SchedulerType sched;
        predict::PredictorType pred;
    };
    for (const auto& point :
         {GridPoint{SchedulerType::Fcfs, predict::PredictorType::None},
          GridPoint{SchedulerType::Pascal,
                    predict::PredictorType::None},
          GridPoint{SchedulerType::Pascal,
                    predict::PredictorType::Oracle},
          GridPoint{SchedulerType::PascalSpec,
                    predict::PredictorType::Profile}}) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(point.sched)) +
                     " predictor " +
                     std::to_string(static_cast<int>(point.pred)));
        SystemConfig cfg = chaosConfig(7);
        cfg.predictor.type = point.pred;
        cfg.scheduler = point.sched;
        if (point.pred != predict::PredictorType::None)
            cfg.placement = PlacementType::PascalPredictive;
        cfg.sloClasses.enabled = true;
        params(cfg, SloClass::Interactive).relativeDeadline = 2.0;
        params(cfg, SloClass::Standard).relativeDeadline = 6.0;

        RunContext ctx(cfg);
        // Audit the per-class pacing heaps and best-effort target
        // switches against the reference walk at every decision.
        ctx.cluster().enableViewAudit();
        ctx.submit(trace);
        ctx.run();
        auto result = ctx.result();
        ASSERT_EQ(result.perRequest.size(), trace.size());
        EXPECT_EQ(result.numUnfinished,
                  static_cast<std::size_t>(result.numTerminalFailures));
        auditClassTotality(result);
        expectNoKvLeaks(ctx);
        test::expectIdentical(result,
                              RunContext::execute(cfg, trace));
    }
}

TEST_F(ClassBehavior, InteractiveProtectedUnderOverload)
{
    // Pure class priority (no deadlines, no shedding) on a saturating
    // storm: Interactive must come out with a better TTFT tail than
    // Batch — the scheduler's class-rank level is doing its job.
    auto trace = stormTrace(2026, 150, 400.0);
    workload::assignSloClasses(trace);
    SystemConfig cfg = tightConfig();
    cfg.sloClasses.enabled = true;
    cfg.sloClasses.enforceDeadlines = false;
    cfg.sloClasses.overloadControl = false;

    auto result = RunContext::execute(cfg, trace);
    const auto& agg = result.classAggregates;
    const auto& inter =
        agg[workload::sloClassIndex(SloClass::Interactive)];
    const auto& batch = agg[workload::sloClassIndex(SloClass::Batch)];
    ASSERT_GT(inter.numFinished, 0u);
    ASSERT_GT(batch.numFinished, 0u);
    EXPECT_LT(inter.meanTtft, batch.meanTtft);
    EXPECT_LT(inter.p99Ttft, batch.p99Ttft);
    auditClassTotality(result);
}

TEST_F(ClassBehavior, DeadlineExpiryFailsTerminallyAndReclaimsKv)
{
    // A deadline far tighter than the storm's service times: expired
    // Interactive requests terminally fail with the KV reclaimed,
    // while completions that beat the deadline stay clean.
    auto trace = stormTrace(55, 100, 400.0);
    workload::assignSloClasses(trace);
    SystemConfig cfg = tightConfig();
    cfg.sloClasses.enabled = true;
    cfg.sloClasses.overloadControl = false; // Isolate the timeout path.
    params(cfg, SloClass::Interactive).relativeDeadline = 1.5;
    params(cfg, SloClass::Standard).relativeDeadline = 0.0;

    RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    auto ci = workload::sloClassIndex(SloClass::Interactive);
    ASSERT_GT(result.perClass[ci].deadlineFailed, 0u)
        << "storm never drove an Interactive request past 1.5 s";

    for (const auto& row : result.perRequest) {
        if (row.failReason == workload::FailReason::DeadlineExceeded) {
            EXPECT_TRUE(row.failed);
            EXPECT_FALSE(row.finished);
            EXPECT_TRUE(row.deadlineExpired);
            EXPECT_EQ(row.sloClass, SloClass::Interactive);
        }
        if (row.finished && row.sloClass == SloClass::Interactive) {
            // Completions beat the timer: the deadline event was
            // canceled, not left to fire into a finished request.
            EXPECT_FALSE(row.deadlineExpired);
            EXPECT_LE(row.e2eLatency, 1.5);
        }
        if (row.sloClass == SloClass::Standard) {
            // relativeDeadline <= 0 disables the deadline entirely.
            EXPECT_FALSE(row.deadlineExpired);
            EXPECT_NE(row.failReason,
                      workload::FailReason::DeadlineExceeded);
        }
    }
    auditClassTotality(result);
    expectNoKvLeaks(ctx);
    test::expectIdentical(result, RunContext::execute(cfg, trace));
}

TEST_F(ClassBehavior, DemoteOnExpiryKeepsWorkAliveAsBestEffort)
{
    // Batch with demote-on-expiry: expiry re-keys the request behind
    // every class instead of failing it, and it still completes —
    // flagged best-effort — so goodput keeps it.
    auto trace = stormTrace(56, 100, 400.0);
    workload::assignSloClasses(trace);
    SystemConfig cfg = tightConfig();
    cfg.sloClasses.enabled = true;
    cfg.sloClasses.overloadControl = false;
    params(cfg, SloClass::Batch).relativeDeadline = 1.0;
    params(cfg, SloClass::Batch).demoteOnExpiry = true;
    params(cfg, SloClass::Interactive).relativeDeadline = 0.0;
    params(cfg, SloClass::Standard).relativeDeadline = 0.0;

    RunContext ctx(cfg);
    ctx.cluster().enableViewAudit();
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    auto bi = workload::sloClassIndex(SloClass::Batch);
    ASSERT_GT(result.perClass[bi].demoted, 0u);
    EXPECT_EQ(result.perClass[bi].deadlineFailed, 0u);

    std::uint64_t demoted_rows = 0;
    for (const auto& row : result.perRequest) {
        if (row.bestEffort) {
            ++demoted_rows;
            EXPECT_EQ(row.sloClass, SloClass::Batch);
            EXPECT_TRUE(row.deadlineExpired);
            // Demotion is graceful degradation, not failure.
            EXPECT_TRUE(row.finished);
            EXPECT_FALSE(row.failed);
        }
    }
    EXPECT_EQ(demoted_rows, result.perClass[bi].demoted);
    // Every Batch request survived: demotion never sheds work.
    EXPECT_EQ(result.perClass[bi].completed,
              result.perClass[bi].submitted);
    auditClassTotality(result);
    expectNoKvLeaks(ctx);
}

TEST_F(ClassBehavior, NegativeSlackShedsInfeasibleArrivalsUpFront)
{
    // A deadline below even the optimistic dedicated-instance bound:
    // every Interactive arrival is shed at admission (no KV ever
    // allocated for them), others admit normally.
    auto trace = stormTrace(57, 60, 100.0);
    workload::assignSloClasses(trace);
    SystemConfig cfg = tightConfig();
    cfg.sloClasses.enabled = true;
    params(cfg, SloClass::Interactive).relativeDeadline = 1e-4;

    RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    auto ci = workload::sloClassIndex(SloClass::Interactive);
    ASSERT_GT(result.perClass[ci].submitted, 0u);
    EXPECT_EQ(result.perClass[ci].shed,
              result.perClass[ci].submitted);
    EXPECT_EQ(result.perClass[ci].completed, 0u);
    for (const auto& row : result.perRequest) {
        if (row.sloClass == SloClass::Interactive) {
            EXPECT_EQ(row.failReason, workload::FailReason::Shed);
            EXPECT_EQ(row.ttft, 0.0); // Never ran.
        }
    }
    auditClassTotality(result);
    expectNoKvLeaks(ctx);
}

TEST_F(ClassBehavior, KvFloorShedsBatchFirst)
{
    // A high Batch KV floor on a saturated pool: Batch arrivals are
    // shed while Interactive (no floor) keeps admitting — the
    // degradation order the paper's overload story wants.
    auto trace = stormTrace(58, 120, 400.0);
    workload::assignSloClasses(trace);
    SystemConfig cfg = tightConfig();
    cfg.gpuKvCapacityTokens = 4096; // Saturates early.
    cfg.sloClasses.enabled = true;
    cfg.sloClasses.enforceDeadlines = false;
    params(cfg, SloClass::Batch).shedKvFloor = 0.5;
    params(cfg, SloClass::Standard).shedKvFloor = 0.0;

    auto result = RunContext::execute(cfg, trace);
    auto bi = workload::sloClassIndex(SloClass::Batch);
    auto ii = workload::sloClassIndex(SloClass::Interactive);
    EXPECT_GT(result.perClass[bi].shed, 0u);
    EXPECT_EQ(result.perClass[ii].shed, 0u);
    auditClassTotality(result);
}

TEST_F(GoodputSemantics, EmptyTraceIsPerfectGoodput)
{
    SystemConfig cfg = tightConfig();
    cfg.sloClasses.enabled = true;
    auto result = RunContext::execute(cfg, workload::Trace{});
    EXPECT_EQ(result.goodputFraction, 1.0);
    for (const auto& out : result.perClass) {
        EXPECT_EQ(out.submitted, 0u);
        EXPECT_EQ(out.goodputFraction, 1.0);
    }
}

TEST_F(GoodputSemantics, ShedAndFailedStayInTheDenominator)
{
    // Mixed outcomes in one run — admission sheds (Batch KV floor),
    // deadline failures (tight Interactive deadline), completions —
    // and the pinned identities hold exactly:
    //   goodputFraction == numFinished / numRequests
    //   goodputFraction + numUnfinished / numRequests == 1
    //   numShed <= numTerminalFailures (a subset, not an extra term)
    auto trace = stormTrace(59, 120, 400.0);
    workload::assignSloClasses(trace);
    SystemConfig cfg = tightConfig();
    cfg.gpuKvCapacityTokens = 4096;
    cfg.sloClasses.enabled = true;
    // 4 s sits inside the window where most arrivals pass the
    // negative-slack feasibility bound (a few hundred decode steps of
    // optimistic service time) yet storm queueing still expires some:
    // both shed and deadline-failed outcomes appear in one run.
    params(cfg, SloClass::Interactive).relativeDeadline = 4.0;
    params(cfg, SloClass::Batch).shedKvFloor = 0.5;

    auto result = RunContext::execute(cfg, trace);
    std::size_t n = trace.size();
    ASSERT_EQ(result.aggregate.numRequests, n);
    EXPECT_GT(result.numShed, 0u);
    EXPECT_GT(result.numTerminalFailures, result.numShed);

    // The denominator is every submitted request: shed and failed
    // requests did NOT shrink it.
    EXPECT_EQ(result.goodputFraction,
              static_cast<double>(result.aggregate.numFinished) /
                  static_cast<double>(n));
    EXPECT_LT(result.goodputFraction, 1.0);
    EXPECT_DOUBLE_EQ(result.goodputFraction +
                         static_cast<double>(result.numUnfinished) /
                             static_cast<double>(n),
                     1.0);
    EXPECT_EQ(result.numUnfinished,
              static_cast<std::size_t>(result.numTerminalFailures));
    auditClassTotality(result);
}

TEST_F(GoodputSemantics, DemotedCompletionsCountAsGoodput)
{
    // A demoted best-effort request that completes is goodput: the
    // numerator counts fully-completed requests regardless of how
    // degraded their service was.
    auto trace = stormTrace(60, 80, 400.0);
    workload::assignSloClasses(trace);
    SystemConfig cfg = tightConfig();
    cfg.sloClasses.enabled = true;
    cfg.sloClasses.overloadControl = false;
    params(cfg, SloClass::Batch).relativeDeadline = 1.0;
    params(cfg, SloClass::Batch).demoteOnExpiry = true;
    params(cfg, SloClass::Interactive).relativeDeadline = 0.0;
    params(cfg, SloClass::Standard).relativeDeadline = 0.0;

    auto result = RunContext::execute(cfg, trace);
    auto bi = workload::sloClassIndex(SloClass::Batch);
    ASSERT_GT(result.perClass[bi].demoted, 0u);
    std::uint64_t finished_rows = 0;
    for (const auto& row : result.perRequest) {
        if (row.finished)
            ++finished_rows;
        if (row.bestEffort) {
            EXPECT_TRUE(row.finished);
        }
    }
    // numFinished (the goodput numerator) includes the demoted rows.
    EXPECT_EQ(result.aggregate.numFinished, finished_rows);
    EXPECT_EQ(result.goodputFraction,
              static_cast<double>(finished_rows) /
                  static_cast<double>(trace.size()));
}

} // namespace
