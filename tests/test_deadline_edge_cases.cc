/**
 * @file
 * Deadline-timing edge cases for the SLO-class subsystem.
 *
 * The dangerous expiry timings are the ones that race the engine's
 * own state machine:
 *  - an expiry landing at the exact timestamp of the plan boundary
 *    that completes the request (deadline events are armed at arrival,
 *    so FIFO order fires them BEFORE a same-timestamp step
 *    completion);
 *  - an expiry firing while the request's KV is in flight on the
 *    fabric (failover restore after a crash);
 *  - an expiry firing while the request is a crash-orphan waiting out
 *    a retry backoff with the whole fleet down;
 *  - a demote-on-expiry deferred past an in-flight step whose end
 *    moves the request off its instance: a </think> migration, a
 *    crash that orphans it, or a crash that preserves its CPU KV.
 * Each must resolve to exactly one outcome (finished XOR failed, no
 * double-fail) with no KV left behind, a demotion must be applied and
 * counted exactly once, and replays must be byte-identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
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

class DeadlineEdgeCases : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

qoe::SloClassParams&
params(SystemConfig& cfg, SloClass c)
{
    return cfg.sloClasses.classes[workload::sloClassIndex(c)];
}

/** Classes-on deployment with the fault layer armed but silent, so
 *  tests can script crashes at exact times (the scriptedConfig idiom
 *  from tests/test_fault_edge_cases.cc). */
SystemConfig
scriptedConfig(int instances = 2)
{
    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Pascal;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = instances;
    cfg.gpuKvCapacityTokens = 8192;
    cfg.kvBlockSizeTokens = 16;
    cfg.fault.enabled = true;
    cfg.fault.retryBudget = 8;
    cfg.fault.backoffBase = 0.1;
    cfg.fault.backoffCap = 0.4;
    cfg.sloClasses.enabled = true;
    cfg.sloClasses.overloadControl = false; // Timeouts only.
    // No deadlines unless a test sets one explicitly.
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        cfg.sloClasses.classes[c].relativeDeadline = 0.0;
        cfg.sloClasses.classes[c].demoteOnExpiry = false;
    }
    return cfg;
}

/** @p n identical Standard-class requests arriving together. */
workload::Trace
flatTrace(int n, Time arrival, TokenCount prompt = 128,
          TokenCount reasoning = 400, TokenCount answer = 60)
{
    workload::Trace trace;
    for (int i = 0; i < n; ++i) {
        workload::RequestSpec spec;
        spec.id = i;
        spec.arrival = arrival;
        spec.promptTokens = prompt;
        spec.reasoningTokens = reasoning;
        spec.answerTokens = answer;
        spec.dataset = "deadline-edge";
        trace.requests.push_back(spec);
    }
    return trace;
}

/** Requests arriving together at t = 0, one per reasoning length. */
workload::Trace
staggeredTrace(const std::vector<TokenCount>& reasoning,
               TokenCount prompt = 128, TokenCount answer = 60)
{
    workload::Trace trace = flatTrace(static_cast<int>(reasoning.size()),
                                      0.0, prompt, 0, answer);
    for (std::size_t i = 0; i < reasoning.size(); ++i)
        trace.requests[i].reasoningTokens = reasoning[i];
    return trace;
}

/** Demotions of the Standard class so far (cluster.slo.standard). */
double
standardDemotions(const obs::StatDump& dump)
{
    return test::statValue(dump, "cluster.slo.standard.demoted");
}

/** Every expired request is best-effort and was counted once. */
void
expectDemotedOnce(const RunResult& result)
{
    std::uint64_t best_effort = 0;
    for (const auto& row : result.perRequest) {
        EXPECT_EQ(row.bestEffort, row.deadlineExpired)
            << "request " << row.id;
        EXPECT_TRUE(row.finished) << "request " << row.id;
        best_effort += row.bestEffort;
    }
    EXPECT_EQ(result.perClass[workload::sloClassIndex(SloClass::Standard)]
                  .demoted,
              best_effort);
    EXPECT_EQ(standardDemotions(result.statsDump),
              static_cast<double>(best_effort));
}

/** The instance holding KV for @p ctx's requests (kNoInstance if
 *  none does). */
InstanceId
busyInstance(const RunContext& ctx)
{
    InstanceId home = kNoInstance;
    for (const auto& inst : ctx.cluster().getInstances()) {
        if (inst->pool().numTracked() > 0)
            home = inst->id();
    }
    return home;
}

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

/** Exactly one outcome per request, accounting reconciled. */
void
expectSingleOutcomes(const RunResult& result)
{
    std::uint64_t failed_rows = 0;
    for (const auto& row : result.perRequest) {
        EXPECT_TRUE(row.finished || row.failed)
            << "request " << row.id << " neither finished nor failed";
        EXPECT_FALSE(row.finished && row.failed)
            << "request " << row.id << " double-resolved";
        if (row.failed)
            ++failed_rows;
    }
    EXPECT_EQ(result.numTerminalFailures, failed_rows);
    EXPECT_EQ(result.numUnfinished,
              static_cast<std::size_t>(result.numTerminalFailures));
}

TEST_F(DeadlineEdgeCases, ExpiryAtExactCompletionBoundary)
{
    // Phase 1: measure when each request actually completes with no
    // deadline armed. Phase 2: re-run with the class deadline set to
    // the slowest request's exact end-to-end latency, so its deadline
    // event fires at the same simulated timestamp as the plan
    // boundary that completes it — and FIRST, since deadline events
    // were inserted at arrival. The expiry must ride the mid-step
    // deferral (the step is in flight at that instant) and then find
    // the request already finished: everything completes, nothing
    // double-resolves, nothing leaks.
    auto trace = flatTrace(6, 0.0);
    SystemConfig cfg = scriptedConfig(1);

    auto baseline = RunContext::execute(cfg, trace);
    ASSERT_EQ(baseline.aggregate.numFinished, 6u);
    double max_e2e = 0.0;
    for (const auto& row : baseline.perRequest)
        max_e2e = std::max(max_e2e, row.e2eLatency);
    ASSERT_GT(max_e2e, 0.0);

    SystemConfig armed = cfg;
    params(armed, SloClass::Standard).relativeDeadline = max_e2e;
    RunContext ctx(armed);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 6u);
    EXPECT_EQ(result.numTerminalFailures, 0u);
    expectSingleOutcomes(result);
    expectNoKvLeaks(ctx);
    // The boundary race is deterministic: replay to the bit.
    test::expectIdentical(result, RunContext::execute(armed, trace));
}

TEST_F(DeadlineEdgeCases, MidStepExpiryDefersToThePlanBoundary)
{
    // A deadline landing mid-run (and mid-step: the engine is
    // saturated with lockstep decode) must not rip the request out of
    // an in-flight plan. The instance parks the expiry and the
    // boundary enforcement terminally fails it with the KV reclaimed.
    auto trace = flatTrace(6, 0.0);
    SystemConfig cfg = scriptedConfig(1);
    auto baseline = RunContext::execute(cfg, trace);
    double max_e2e = 0.0;
    for (const auto& row : baseline.perRequest)
        max_e2e = std::max(max_e2e, row.e2eLatency);

    SystemConfig armed = cfg;
    params(armed, SloClass::Standard).relativeDeadline = 0.6 * max_e2e;
    RunContext ctx(armed);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    // At 60 % of the slowest completion at least one request was
    // still running; every expired one fails exactly once.
    EXPECT_GT(result.numTerminalFailures, 0u);
    for (const auto& row : result.perRequest) {
        if (row.failed) {
            EXPECT_EQ(row.failReason,
                      workload::FailReason::DeadlineExceeded);
            EXPECT_TRUE(row.deadlineExpired);
        }
    }
    expectSingleOutcomes(result);
    expectNoKvLeaks(ctx);
    test::expectIdentical(result, RunContext::execute(armed, trace));
}

TEST_F(DeadlineEdgeCases, MidStepExpiryWithDemotionFinishesEverything)
{
    // Same mid-step timing, demote-on-expiry: the boundary drain
    // demotes instead of failing, and every request still completes
    // as best-effort.
    auto trace = flatTrace(6, 0.0);
    SystemConfig cfg = scriptedConfig(1);
    auto baseline = RunContext::execute(cfg, trace);
    double max_e2e = 0.0;
    for (const auto& row : baseline.perRequest)
        max_e2e = std::max(max_e2e, row.e2eLatency);

    SystemConfig armed = cfg;
    params(armed, SloClass::Standard).relativeDeadline = 0.6 * max_e2e;
    params(armed, SloClass::Standard).demoteOnExpiry = true;
    RunContext ctx(armed);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 6u);
    EXPECT_EQ(result.numTerminalFailures, 0u);
    auto si = workload::sloClassIndex(SloClass::Standard);
    EXPECT_GT(result.perClass[si].demoted, 0u);
    std::uint64_t best_effort = 0;
    for (const auto& row : result.perRequest) {
        if (row.bestEffort)
            ++best_effort;
    }
    EXPECT_EQ(best_effort, result.perClass[si].demoted);
    expectNoKvLeaks(ctx);
}

TEST_F(DeadlineEdgeCases, ExpiryWhileRestoreIsInFlight)
{
    // A crash orphans the lone request mid-decode; its failover
    // restore crawls over a deliberately slow fabric; the deadline
    // fires while the KV is on the wire. Expiry enforcement must not
    // rip state out from under the transfer — the landing guard
    // consumes the request instead: exactly one DeadlineExceeded
    // failure, no KV materialized anywhere.
    SystemConfig cfg = scriptedConfig();
    cfg.hardware.fabricGbps = 0.02; // Restores take whole seconds.
    params(cfg, SloClass::Standard).relativeDeadline = 2.0;
    RunContext ctx(cfg);
    ctx.submit(flatTrace(1, 0.0));
    auto& cl = ctx.cluster();

    ctx.run(1.0); // Prefilled and decoding on its home.
    InstanceId home = kNoInstance;
    for (const auto& inst : cl.getInstances()) {
        if (inst->pool().numTracked() > 0)
            home = inst->id();
    }
    ASSERT_NE(home, kNoInstance);
    InstanceId other = home == 0 ? 1 : 0;
    cl.crashInstance(home);

    // The restore transfer must still be in flight when the deadline
    // fires at t = 2.0.
    ctx.run(2.0);
    ASSERT_GT(cl.ingressLink(other).busyUntil(), 2.0)
        << "restore landed before the deadline — slow the fabric";

    ctx.simulator().at(3.0, [&cl, home] { cl.recoverInstance(home); });
    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 0u);
    EXPECT_EQ(result.numTerminalFailures, 1u);
    EXPECT_EQ(result.perRequest[0].failReason,
              workload::FailReason::DeadlineExceeded);
    EXPECT_TRUE(result.perRequest[0].deadlineExpired);
    expectSingleOutcomes(result);
    expectNoKvLeaks(ctx);
}

TEST_F(DeadlineEdgeCases, ExpiryOnCrashOrphanMidBackoff)
{
    // Whole fleet down: the orphaned requests cycle through
    // capped-exponential backoff with nowhere to land. Their deadline
    // fires between retry attempts; the next retry's guard must
    // convert it into exactly one DeadlineExceeded failure (not a
    // RetryBudget one, not two failures) even though the fleet later
    // recovers.
    SystemConfig cfg = scriptedConfig();
    params(cfg, SloClass::Standard).relativeDeadline = 1.0;
    RunContext ctx(cfg);
    ctx.submit(flatTrace(2, 0.0));
    auto& cl = ctx.cluster();

    ctx.run(0.5);
    cl.crashInstance(0);
    cl.crashInstance(1);
    ctx.simulator().at(3.0, [&cl] {
        cl.recoverInstance(0);
        cl.recoverInstance(1);
    });

    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 0u);
    EXPECT_EQ(result.numTerminalFailures, 2u);
    EXPECT_GT(result.numRetries, 0u);
    for (const auto& row : result.perRequest) {
        EXPECT_TRUE(row.failed);
        EXPECT_EQ(row.failReason,
                  workload::FailReason::DeadlineExceeded);
        EXPECT_TRUE(row.deadlineExpired);
    }
    expectSingleOutcomes(result);
    expectNoKvLeaks(ctx);
}

TEST_F(DeadlineEdgeCases, DemotionDeferredPastAMigratingStepLandsBestEffort)
{
    // The deadline fires inside the step that emits a request's
    // </think>, and that step's boundary migrates the request, so the
    // parked expiry finds it on the wire instead of on its old home.
    // It must still be demoted, once, and land best-effort. Staggered
    // reasoning lengths make a later transition find the other
    // instance with fewer reasoning requests (Algorithm 2 moves it).
    auto trace = staggeredTrace({100, 260, 400, 600});
    SystemConfig cfg = scriptedConfig(2);
    auto baseline = RunContext::execute(cfg, trace);
    std::size_t moved = baseline.perRequest.size();
    for (std::size_t i = 0; i < baseline.perRequest.size(); ++i) {
        if (baseline.perRequest[i].migrationCount == 1) {
            moved = i;
            break;
        }
    }
    ASSERT_LT(moved, baseline.perRequest.size()) << "nothing migrated";

    // Every request arrived at t = 0, so reasoningLatency is the
    // absolute </think> time: the end of the step that emits it.
    SystemConfig armed = cfg;
    params(armed, SloClass::Standard).relativeDeadline =
        baseline.perRequest[moved].reasoningLatency - 1e-6;
    params(armed, SloClass::Standard).demoteOnExpiry = true;
    RunContext ctx(armed);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    const auto& row = result.perRequest[moved];
    EXPECT_EQ(row.migrationCount, 1);
    EXPECT_TRUE(row.deadlineExpired);
    EXPECT_TRUE(row.bestEffort);
    expectDemotedOnce(result);
    expectSingleOutcomes(result);
    expectNoKvLeaks(ctx);
    test::expectIdentical(result, RunContext::execute(armed, trace));
}

TEST_F(DeadlineEdgeCases, DemotionDeferredPastACrashReachesTheOrphan)
{
    // The deadline fires mid-step and is parked; the instance then
    // crashes before the step ends. The crash ends the step, so the
    // parked expiry runs there: the orphan is flagged best-effort and
    // retries as best-effort on the surviving instance.
    SystemConfig cfg = scriptedConfig(2);
    params(cfg, SloClass::Standard).relativeDeadline = 1.0;
    params(cfg, SloClass::Standard).demoteOnExpiry = true;
    RunContext ctx(cfg);
    ctx.submit(flatTrace(1, 0.0));
    auto& cl = ctx.cluster();

    ctx.run(1.0); // Deadline fired while decoding.
    InstanceId home = busyInstance(ctx);
    ASSERT_NE(home, kNoInstance);
    ASSERT_TRUE(cl.getInstances()[home]->hasStepInFlight());
    ASSERT_EQ(standardDemotions(cl.dumpStats()), 0.0) << "not parked";
    cl.crashInstance(home);
    EXPECT_EQ(standardDemotions(cl.dumpStats()), 1.0);

    ctx.run();
    auto result = ctx.result();
    EXPECT_GT(result.numRetries, 0u);
    EXPECT_TRUE(result.perRequest[0].bestEffort);
    expectDemotedOnce(result);
    expectSingleOutcomes(result);
    expectNoKvLeaks(ctx);
}

TEST_F(DeadlineEdgeCases, DemotionDeferredPastACrashReachesPreservedKv)
{
    // As above with preserveCpuKv: a request swapped out to host DRAM
    // survives the crash in place, so no retry path ever sees it. The
    // crash must still run its parked expiry and demote it.
    auto trace = flatTrace(8, 0.0, 512, 1500, 60);
    SystemConfig cfg = scriptedConfig(1);
    cfg.fault.preserveCpuKv = true;

    // Find a mid-step instant where the instance holds swapped-out
    // KV (deterministic: the armed run matches this one until then).
    auto swapped = [](const RunContext& c) {
        std::vector<RequestId> ids;
        for (const auto* r :
             c.cluster().getInstances()[0]->scheduler().hosted()) {
            if (r->exec == workload::ExecState::SwappedCpu)
                ids.push_back(r->id());
        }
        return ids;
    };
    Time t_crash = -1.0;
    {
        RunContext probe(cfg);
        probe.submit(trace);
        for (Time t = 0.05; t < 60.0 && t_crash < 0.0; t += 0.05) {
            probe.run(t);
            if (!swapped(probe).empty() &&
                probe.cluster().getInstances()[0]->hasStepInFlight()) {
                t_crash = t;
            }
        }
    }
    ASSERT_GT(t_crash, 0.0) << "no swap-out to preserve";

    params(cfg, SloClass::Standard).relativeDeadline = t_crash;
    params(cfg, SloClass::Standard).demoteOnExpiry = true;
    RunContext ctx(cfg);
    ctx.submit(trace);
    auto& cl = ctx.cluster();
    ctx.run(t_crash);
    const std::vector<RequestId> preserved = swapped(ctx);
    ASSERT_FALSE(preserved.empty());
    ASSERT_TRUE(cl.getInstances()[0]->hasStepInFlight());
    ASSERT_EQ(standardDemotions(cl.dumpStats()), 0.0) << "not parked";
    cl.crashInstance(0);
    Time back = ctx.simulator().now() + 0.5;
    ctx.simulator().at(back, [&cl] { cl.recoverInstance(0); });

    ctx.run();
    auto result = ctx.result();
    for (RequestId id : preserved) {
        const auto& row = result.perRequest[static_cast<std::size_t>(id)];
        EXPECT_TRUE(row.deadlineExpired) << "request " << id;
        EXPECT_TRUE(row.bestEffort) << "request " << id;
    }
    expectDemotedOnce(result);
    expectSingleOutcomes(result);
    expectNoKvLeaks(ctx);
}

TEST_F(DeadlineEdgeCases, ChaosSweepWithTightDeadlinesStaysSound)
{
    // Stochastic closure over every other timing: aggressive crash /
    // link-failure rates with tight deadlines across a seed sweep, so
    // expiries land in whatever state the chaos schedule produces
    // (mid-migration aborts, drain evictions, backoff loops). Each
    // run must keep single-outcome accounting and leak nothing, and
    // the sweep must actually exercise the deadline path.
    Rng rng(21);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {80.0, 0.5, 32, 192};
    profile.reasoning = {160.0, 0.7, 24, 700};
    profile.answering = {70.0, 0.6, 16, 300};
    auto trace = workload::generateTrace(profile, 100, 250.0, rng);
    workload::assignSloClasses(trace);

    std::uint64_t deadline_failures = 0, crashes = 0;
    for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
        SCOPED_TRACE("fault seed " + std::to_string(seed));
        SystemConfig cfg = scriptedConfig(3);
        cfg.limits.demoteThresholdTokens = 700;
        cfg.fault.seed = seed;
        cfg.fault.crashRate = 0.3;
        cfg.fault.mttr = 1.5;
        cfg.fault.linkFailureProb = 0.3;
        cfg.fault.retryBudget = 4;
        params(cfg, SloClass::Interactive).relativeDeadline = 1.5;
        params(cfg, SloClass::Standard).relativeDeadline = 4.0;
        params(cfg, SloClass::Batch).relativeDeadline = 2.5;
        params(cfg, SloClass::Batch).demoteOnExpiry = true;

        RunContext ctx(cfg);
        ctx.submit(trace);
        ctx.run();
        auto result = ctx.result();
        expectSingleOutcomes(result);
        expectNoKvLeaks(ctx);
        for (const auto& out : result.perClass)
            deadline_failures += out.deadlineFailed;
        crashes += result.numCrashes;
        test::expectIdentical(result, RunContext::execute(cfg, trace));
    }
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(deadline_failures, 0u);
}

} // namespace
