/**
 * @file
 * Scripted crash-timing edge cases for the fault layer.
 *
 * Each test enables the fault layer with every stochastic rate at
 * zero (the injector exists, so the failover branches are armed, but
 * nothing fires on its own) and drives the Cluster's public fault API
 * at exact simulated times: destination crashes mid-transfer, a crash
 * landing at the same timestamp as a burst's deferred plan boundary,
 * CPU-preserved KV riding out a crash, and a drain racing a
 * reasoning->answering promotion.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::RunContext;
using cluster::SchedulerType;
using cluster::SystemConfig;

class FaultEdgeCases : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

/** Two-instance deployment with the fault layer armed but silent
 *  (every rate zero): faults happen only where the test scripts
 *  them. */
SystemConfig
scriptedConfig()
{
    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Pascal;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = 8192;
    cfg.kvBlockSizeTokens = 16;
    cfg.fault.enabled = true;
    cfg.fault.retryBudget = 8;
    cfg.fault.backoffBase = 0.1;
    cfg.fault.backoffCap = 0.4;
    return cfg;
}

/** @p n identical requests arriving together at @p arrival. */
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
        spec.dataset = "scripted";
        trace.requests.push_back(spec);
    }
    return trace;
}

/** Audit: nothing leaked and every request is accounted for. */
void
expectCleanEnd(const RunContext& ctx, const cluster::RunResult& result)
{
    EXPECT_EQ(result.numUnfinished,
              static_cast<std::size_t>(result.numTerminalFailures));
    for (const auto& inst : ctx.cluster().getInstances()) {
        EXPECT_EQ(inst->pool().numTracked(), 0u)
            << "instance " << inst->id() << " leaked KV slots";
        EXPECT_EQ(inst->pool().gpuUsed(), 0)
            << "instance " << inst->id() << " leaked GPU KV tokens";
    }
}

TEST_F(FaultEdgeCases, DestinationCrashMidRestoreAbortsAndRetries)
{
    // A crash orphans a prefill-complete request; its failover
    // restore starts re-materializing KV onto the other instance over
    // a deliberately slow fabric; the destination then crashes while
    // the transfer is in flight. The landing must abort (no KV
    // materialized on a down instance), re-queue the request, and a
    // later retry — after both recoveries — must finish it.
    SystemConfig cfg = scriptedConfig();
    cfg.hardware.fabricGbps = 0.02; // Restores take whole seconds.
    RunContext ctx(cfg);
    ctx.submit(flatTrace(1, 0.0));
    auto& cl = ctx.cluster();

    // By t = 1.0 the lone request prefilled and is decoding on its
    // home; crash the home so the failover path restores elsewhere.
    ctx.run(1.0);
    InstanceId home = kNoInstance;
    for (const auto& inst : cl.getInstances()) {
        if (inst->pool().numTracked() > 0)
            home = inst->id();
    }
    ASSERT_NE(home, kNoInstance);
    InstanceId other = home == 0 ? 1 : 0;
    cl.crashInstance(home);

    // Step until the restore transfer into the surviving instance is
    // observably in flight on its fabric ingress link.
    Time now = 1.0;
    while (now < 30.0 && cl.ingressLink(other).busyUntil() <= now) {
        now += 0.05;
        ctx.run(now);
    }
    ASSERT_GT(cl.ingressLink(other).busyUntil(), now)
        << "restore transfer never started";
    Time abort_at = cl.ingressLink(other).busyUntil();

    // Destination crashes mid-transfer; both instances recover after
    // the (now doomed) transfer would have landed.
    cl.crashInstance(other);
    ctx.simulator().at(abort_at + 0.5, [&cl, home] {
        cl.recoverInstance(home);
    });
    ctx.simulator().at(abort_at + 0.6, [&cl, other] {
        cl.recoverInstance(other);
    });

    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 1u);
    EXPECT_EQ(result.numCrashes, 2u);
    // At least: the crash re-queue and the aborted-landing re-queue.
    EXPECT_GE(result.numRetries, 2u);
    EXPECT_EQ(result.numTerminalFailures, 0u);
    expectCleanEnd(ctx, result);
}

TEST_F(FaultEdgeCases, CrashAtPlanBoundaryMidBurst)
{
    // A same-timestamp arrival burst defers each member's plan
    // boundary to a same-timestamp event. A crash scheduled at that
    // exact timestamp (FIFO: after the admissions, before the deferred
    // boundaries) orphans the admitted requests, and the boundaries
    // then fire against a down instance — they must be no-ops, not a
    // plan over detached requests.
    SystemConfig cfg = scriptedConfig();
    RunContext ctx(cfg);
    ctx.submit(flatTrace(12, 1.0));
    auto& cl = ctx.cluster();
    ctx.simulator().at(1.0, [&cl] { cl.crashInstance(0); });
    ctx.simulator().at(3.0, [&cl] { cl.recoverInstance(0); });

    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 12u);
    EXPECT_EQ(result.numCrashes, 1u);
    EXPECT_GT(result.numRetries, 0u); // Instance 0's share re-queued.
    EXPECT_EQ(result.numTerminalFailures, 0u);
    expectCleanEnd(ctx, result);
}

TEST_F(FaultEdgeCases, PreservedCpuKvRidesOutTheCrash)
{
    // With preserveCpuKv, requests whose KV was offloaded to host
    // DRAM at crash time stay hosted through the outage and resume
    // after recovery; only GPU-resident work is orphaned. A tight KV
    // pool plus a low demotion threshold guarantees offloaded
    // requests exist when the crash lands.
    SystemConfig cfg = scriptedConfig();
    cfg.fault.preserveCpuKv = true;
    cfg.gpuKvCapacityTokens = 2048;
    cfg.limits.demoteThresholdTokens = 100;
    RunContext ctx(cfg);
    ctx.submit(flatTrace(6, 0.0, 64, 600, 40));
    auto& cl = ctx.cluster();
    const auto& inst0 = *cl.getInstances()[0];

    // Step until instance 0 demonstrably holds CPU-offloaded KV.
    Time now = 0.0;
    auto swapped0 = [&inst0] {
        return inst0.pool().numTracked() - inst0.pool().numGpuResident();
    };
    while (now < 60.0 && swapped0() == 0) {
        now += 0.25;
        ctx.run(now);
    }
    ASSERT_GT(swapped0(), 0u) << "no request ever offloaded to CPU";

    std::size_t preserved = swapped0();
    cl.crashInstance(0);
    // The preserved requests stayed hosted; everything GPU-side was
    // detached and re-queued.
    EXPECT_EQ(inst0.pool().numTracked(), preserved);
    EXPECT_EQ(inst0.pool().numGpuResident(), 0u);

    ctx.simulator().after(2.0, [&cl] { cl.recoverInstance(0); });
    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 6u);
    EXPECT_EQ(result.numTerminalFailures, 0u);
    expectCleanEnd(ctx, result);
}

TEST_F(FaultEdgeCases, CrashWithoutPreservationOrphansEverything)
{
    // Same scenario with the knob off: the crash must empty the pool
    // entirely (CPU-offloaded KV is lost with the host) and every
    // displaced request goes through the retry path.
    SystemConfig cfg = scriptedConfig();
    cfg.fault.preserveCpuKv = false;
    cfg.gpuKvCapacityTokens = 2048;
    cfg.limits.demoteThresholdTokens = 100;
    RunContext ctx(cfg);
    ctx.submit(flatTrace(6, 0.0, 64, 600, 40));
    auto& cl = ctx.cluster();
    const auto& inst0 = *cl.getInstances()[0];

    Time now = 0.0;
    while (now < 60.0 && inst0.pool().numTracked() == 0) {
        now += 0.25;
        ctx.run(now);
    }
    ASSERT_GT(inst0.pool().numTracked(), 0u);

    cl.crashInstance(0);
    EXPECT_EQ(inst0.pool().numTracked(), 0u);
    EXPECT_EQ(inst0.pool().gpuUsed(), 0);

    ctx.simulator().after(2.0, [&cl] { cl.recoverInstance(0); });
    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 6u);
    EXPECT_GT(result.numRetries, 0u);
    expectCleanEnd(ctx, result);
}

TEST_F(FaultEdgeCases, DrainRoutesThePromotionAway)
{
    // A planned decommission must not strand the reasoning->answering
    // promotion: with the home instance draining, placeTransition
    // routes the promoted request to a healthy instance and the KV
    // migrates, while the draining engine keeps executing until then.
    SystemConfig cfg = scriptedConfig();
    RunContext ctx(cfg);
    ctx.submit(flatTrace(1, 0.0));
    auto& cl = ctx.cluster();

    ctx.run(0.5); // Mid-reasoning on its home instance.
    InstanceId home = kNoInstance;
    for (const auto& inst : cl.getInstances()) {
        if (inst->pool().numTracked() > 0)
            home = inst->id();
    }
    ASSERT_NE(home, kNoInstance);
    cl.startDrain(home);

    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 1u);
    EXPECT_EQ(cl.numDrains(), 1u);
    EXPECT_EQ(result.numCrashes, 0u);
    // The promotion left the draining home over the fabric.
    EXPECT_GE(result.aggregate.totalMigrations, 1);
    InstanceId away = home == 0 ? 1 : 0;
    EXPECT_GT(cl.getInstances()[away]->numIterations(), 0u);
    expectCleanEnd(ctx, result);
}

TEST_F(FaultEdgeCases, DrainDeadlineEvictsStragglingWork)
{
    // If hosted work outlives the grace window, finishDrain takes the
    // instance down like a crash: remaining requests re-queue and
    // complete elsewhere or after recovery.
    SystemConfig cfg = scriptedConfig();
    RunContext ctx(cfg);
    ctx.submit(flatTrace(4, 0.0));
    auto& cl = ctx.cluster();

    ctx.run(0.5);
    cl.startDrain(0);
    bool had_work = cl.getInstances()[0]->pool().numTracked() > 0;
    ctx.simulator().at(0.6, [&cl] { cl.finishDrain(0); });
    ctx.simulator().at(5.0, [&cl] { cl.recoverInstance(0); });

    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 4u);
    EXPECT_EQ(cl.numDrains(), 1u);
    // A deadline eviction is a drain outcome, not a crash.
    EXPECT_EQ(result.numCrashes, 0u);
    if (had_work) {
        EXPECT_GT(result.numRetries, 0u);
    }
    expectCleanEnd(ctx, result);
}

TEST_F(FaultEdgeCases, RetryBudgetExhaustionFailsTerminally)
{
    // With the whole fleet down and a finite budget, a displaced
    // request's capped-exponential-backoff retries must terminate in
    // an accounted RetryBudget failure instead of retrying forever.
    SystemConfig cfg = scriptedConfig();
    cfg.fault.retryBudget = 2;
    RunContext ctx(cfg);
    ctx.submit(flatTrace(2, 0.0));
    auto& cl = ctx.cluster();

    ctx.run(0.5);
    cl.crashInstance(0);
    cl.crashInstance(1); // Nowhere to go: retries must drain out.

    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 0u);
    EXPECT_EQ(result.numTerminalFailures, 2u);
    EXPECT_EQ(result.goodputFraction, 0.0);
    for (const auto& row : result.perRequest) {
        EXPECT_TRUE(row.failed);
        EXPECT_EQ(row.failReason, workload::FailReason::RetryBudget);
    }
    expectCleanEnd(ctx, result);
}

TEST_F(FaultEdgeCases, StragglerWindowSlowsThenRestores)
{
    // A straggler window stretches iteration latency by the factor
    // and full speed returns when it ends; the run completes either
    // way and the window is accounted.
    SystemConfig cfg = scriptedConfig();
    RunContext ctx(cfg);
    ctx.submit(flatTrace(4, 0.0));
    auto& cl = ctx.cluster();
    ctx.simulator().at(0.2, [&cl] { cl.setStraggler(0, 4.0); });
    ctx.simulator().at(2.2, [&cl] { cl.setStraggler(0, 1.0); });

    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.aggregate.numFinished, 4u);
    EXPECT_EQ(cl.numStragglerWindows(), 1u);
    EXPECT_EQ(result.numCrashes, 0u);
    expectCleanEnd(ctx, result);
}

} // namespace
