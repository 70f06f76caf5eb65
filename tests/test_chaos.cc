/**
 * @file
 * Chaos harness: seeded fault schedules replayed across the
 * scheduler x predictor grid, auditing the fault layer's invariants.
 *
 * Under aggressive crash / decommission / straggler / link-failure
 * rates every run must still satisfy:
 *   - accounting totality: every request either finished or carries a
 *     terminal FailReason, and numUnfinished == numTerminalFailures;
 *   - transfer accounting: each row holds one KV-transfer latency per
 *     landed migration, restores excluded;
 *   - no leaked KV: every instance's pool tracks zero requests and
 *     zero GPU tokens once the event queue drains;
 *   - determinism: a same-seed replay is byte-identical, including
 *     the phase-time buckets and failure accounting;
 *   - audits: seeded random fault x SLO-class configs run clean
 *     under the per-decision SLO monitor audit and the eager accrual
 *     walk;
 *   - dormancy: enabling the fault layer with every rate at zero is
 *     byte-identical to cfg.fault.enabled = false (the pre-fault
 *     code path), across the whole force-mode matrix.
 */

#include <gtest/gtest.h>

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

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using Chaos = QuietLogs;
using FaultDormancy = QuietLogs;

/** Bursty arrival-storm trace (same regime as the arrival-burst tests):
 *  Poisson arrivals quantized onto a coarse tick grid. */
workload::Trace
chaosTrace(std::uint64_t seed, int n = 150, double rate = 300.0,
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

/** Tight 3-instance deployment with an aggressive fault schedule:
 *  mean time between lifecycle events per instance ~2.5 s against a
 *  run of tens of seconds, so every fault species fires. */
SystemConfig
chaosConfig(SchedulerType sched, predict::PredictorConfig pred,
            std::uint64_t fault_seed)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = pred.type == predict::PredictorType::None
                        ? PlacementType::Pascal
                        : PlacementType::PascalPredictive;
    cfg.predictor = pred;
    cfg.numInstances = 3;
    cfg.gpuKvCapacityTokens = 8192; // Tight: admission backlogs form.
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 700;

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

predict::PredictorConfig
predictorNamed(const std::string& kind)
{
    predict::PredictorConfig cfg;
    if (kind == "oracle")
        cfg.type = predict::PredictorType::Oracle;
    else if (kind == "profile")
        cfg.type = predict::PredictorType::Profile;
    return cfg;
}

/** The full invariant audit over one finished chaos run. */
void
auditRun(const RunContext& ctx, const RunResult& result,
         std::size_t num_requests)
{
    // Accounting totality: finished or terminally failed, nothing in
    // between, and the failure taxonomy adds up.
    ASSERT_EQ(result.perRequest.size(), num_requests);
    std::uint64_t failed_rows = 0;
    std::uint64_t shed_rows = 0;
    for (const auto& row : result.perRequest) {
        EXPECT_TRUE(row.finished || row.failed)
            << "request " << row.id << " neither finished nor failed";
        EXPECT_FALSE(row.finished && row.failed)
            << "request " << row.id << " both finished and failed";
        if (row.failed)
            ++failed_rows;
        if (row.failReason == workload::FailReason::Shed)
            ++shed_rows;
    }
    EXPECT_EQ(result.numTerminalFailures, failed_rows);
    EXPECT_EQ(result.numShed, shed_rows);
    EXPECT_EQ(result.numUnfinished,
              static_cast<std::size_t>(result.numTerminalFailures));
    EXPECT_EQ(result.goodputFraction,
              static_cast<double>(result.aggregate.numFinished) /
                  static_cast<double>(num_requests));
    // The run's transfer latencies are exactly the rows': a transfer
    // a link failure or a crash aborted is in neither, and a row
    // books one Sec. V-C latency per landed migration (a failover
    // restore books none).
    std::size_t row_transfers = 0;
    for (const auto& row : result.perRequest) {
        row_transfers += row.kvTransferLatencies.size();
        EXPECT_EQ(row.kvTransferLatencies.size(),
                  static_cast<std::size_t>(row.migrationCount))
            << "request " << row.id;
    }
    EXPECT_EQ(result.kvTransferLatencies.size(), row_transfers);

    // No leaked KV: once the queue drains, every slot was released
    // (completion, detach-on-crash, or terminal failure).
    for (const auto& inst : ctx.cluster().getInstances()) {
        EXPECT_EQ(inst->pool().numTracked(), 0u)
            << "instance " << inst->id() << " leaked KV slots";
        EXPECT_EQ(inst->pool().gpuUsed(), 0)
            << "instance " << inst->id() << " leaked GPU KV tokens";
    }
}

struct GridPoint
{
    SchedulerType sched;
    std::string predictor;
};

/** The scheduler x predictor grid the chaos sweeps draw from
 *  (predictor-keyed schedulers need a predictor). */
std::vector<GridPoint>
chaosGrid()
{
    std::vector<GridPoint> grid;
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr,
          SchedulerType::Pascal}) {
        for (const char* kind : {"none", "oracle", "profile"})
            grid.push_back({sched, kind});
    }
    for (SchedulerType sched :
         {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        for (const char* kind : {"oracle", "profile"})
            grid.push_back({sched, kind});
    }
    return grid;
}

TEST_F(Chaos, InvariantsAndReplayAcrossSchedulerPredictorGrid)
{
    auto trace = chaosTrace(4242);
    std::uint64_t total_crashes = 0;
    for (const auto& point : chaosGrid()) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(point.sched)) +
                     " predictor " + point.predictor);
        SystemConfig cfg = chaosConfig(
            point.sched, predictorNamed(point.predictor), 7);

        RunContext ctx(cfg);
        ctx.submit(trace);
        ctx.run();
        auto result = ctx.result();
        auditRun(ctx, result, trace.size());
        total_crashes += result.numCrashes;

        // Same-seed replay: the fault schedule is part of the run's
        // deterministic state, so the rerun is byte-identical.
        auto replay = RunContext::execute(cfg, trace);
        test::expectIdentical(result, replay);
    }
    // The schedule was aggressive enough to actually exercise the
    // failover path somewhere in the grid.
    EXPECT_GT(total_crashes, 0u);
}

TEST_F(Chaos, SeedSweepExercisesEveryFaultSpecies)
{
    // Across a small seed sweep on one grid point, every fault
    // species fires at least once and the invariants hold per run.
    auto trace = chaosTrace(99, 120);
    std::uint64_t crashes = 0, drains = 0, stragglers = 0, retries = 0;
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
        SCOPED_TRACE("fault seed " + std::to_string(seed));
        SystemConfig cfg = chaosConfig(SchedulerType::Pascal,
                                       predictorNamed("none"), seed);
        RunContext ctx(cfg);
        ctx.submit(trace);
        ctx.run();
        auto result = ctx.result();
        auditRun(ctx, result, trace.size());
        crashes += result.numCrashes;
        drains += static_cast<std::uint64_t>(
            test::statValue(result.statsDump, "cluster.fault.drains"));
        stragglers += static_cast<std::uint64_t>(test::statValue(
            result.statsDump, "cluster.fault.straggler_windows"));
        retries += result.numRetries;
    }
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(drains, 0u);
    EXPECT_GT(stragglers, 0u);
    EXPECT_GT(retries, 0u);
}

TEST_F(Chaos, PreserveCpuKvRunsCleanly)
{
    // The preserve-CPU-KV recovery knob changes which requests a
    // crash orphans (CPU-offloaded ones ride it out on the host DRAM)
    // but none of the invariants.
    auto trace = chaosTrace(17, 120);
    SystemConfig cfg = chaosConfig(SchedulerType::Pascal,
                                   predictorNamed("oracle"), 11);
    cfg.fault.preserveCpuKv = true;
    RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    auditRun(ctx, result, trace.size());
    auto replay = RunContext::execute(cfg, trace);
    test::expectIdentical(result, replay);
}

TEST_F(Chaos, ShedFloorRejectsArrivalsWhileCapacityIsDown)
{
    // With a shed floor above 2/3 on a 3-instance fleet, any arrival
    // landing while even one instance is down or draining is shed —
    // and accounted as a terminal failure with FailReason::Shed.
    auto trace = chaosTrace(58, 200, 120.0);
    SystemConfig cfg = chaosConfig(SchedulerType::Pascal,
                                   predictorNamed("none"), 23);
    cfg.fault.shedFloor = 0.9;
    RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    auditRun(ctx, result, trace.size());
    if (result.numCrashes > 0) {
        EXPECT_GT(result.numShed, 0u);
    }
    EXPECT_LE(result.numShed, result.numTerminalFailures);
}

TEST_F(Chaos, SeededConfigFuzzUnderAudits)
{
    // Each seed draws a fault schedule, an SLO-class policy and a
    // grid point, then runs with the per-decision SLO monitor audit
    // and the eager accrual walk on (either panics on a divergence),
    // through the full invariant audit, and against a same-seed
    // replay.
    const std::vector<GridPoint> grid = chaosGrid();
    std::uint64_t crashes = 0, retries = 0, shed = 0, expired = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        const GridPoint& point = grid[rng.pickIndex(grid.size())];
        SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                     " scheduler " +
                     std::to_string(static_cast<int>(point.sched)) +
                     " predictor " + point.predictor);
        SystemConfig cfg = chaosConfig(
            point.sched, predictorNamed(point.predictor), seed);
        fault::FaultConfig& f = cfg.fault;
        f.crashRate = rng.uniformReal(0.0, 0.5);
        f.decommissionRate = rng.uniformReal(0.0, 0.2);
        f.stragglerRate = rng.uniformReal(0.0, 0.4);
        f.linkFailureProb = rng.uniformReal(0.0, 0.4);
        f.retryBudget = static_cast<int>(rng.uniformInt(0, 8));
        f.shedFloor = rng.bernoulli(0.3) ? rng.uniformReal(0.3, 0.9) : 0.0;
        f.preserveCpuKv = rng.bernoulli(0.5);
        qoe::SloClassConfig& classes = cfg.sloClasses;
        classes.enabled = rng.bernoulli(0.5);
        classes.enforceDeadlines = rng.bernoulli(0.7);
        classes.overloadControl = rng.bernoulli(0.5);
        classes.shedOnNegativeSlack = rng.bernoulli(0.5);
        for (auto& c : classes.classes) {
            c.relativeDeadline =
                rng.bernoulli(0.2) ? 0.0 : rng.uniformReal(1.0, 20.0);
            c.demoteOnExpiry = rng.bernoulli(0.5);
        }
        cfg.limits.forceAccrue = true;
        auto trace = chaosTrace(seed);
        workload::assignSloClasses(trace);

        RunContext ctx(cfg);
        ctx.cluster().enableViewAudit();
        ctx.submit(trace);
        ctx.run();
        auto result = ctx.result();
        auditRun(ctx, result, trace.size());
        test::expectIdentical(result, RunContext::execute(cfg, trace));
        crashes += result.numCrashes;
        retries += result.numRetries;
        shed += result.numShed;
        for (const auto& c : result.perClass)
            expired += c.deadlineFailed + c.demoted;
    }
    // The draws reach every failover and class-policy path.
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(retries, 0u);
    EXPECT_GT(shed, 0u);
    EXPECT_GT(expired, 0u);
}

TEST_F(Chaos, ForceModeMatrixByteIdenticalUnderFaults)
{
    // {FORCE_RESORT} x {FORCE_ACCRUE} with the fault schedule live:
    // the failover path (crash detach, backoff re-placement, KV
    // restore, link-failure aborts) must be invisible to every force
    // twin, so all 4 corners agree byte-for-byte.
    auto trace = chaosTrace(313, 100);
    SystemConfig base = chaosConfig(SchedulerType::Pascal,
                                    predictorNamed("oracle"), 3);

    std::vector<RunResult> results;
    for (int mask = 0; mask < 4; ++mask) {
        SystemConfig cfg = base;
        cfg.limits.forceResort = (mask & 1) != 0;
        cfg.limits.forceAccrue = (mask & 2) != 0;
        results.push_back(RunContext::execute(cfg, trace));
    }
    EXPECT_GT(results[0].numCrashes, 0u);
    for (std::size_t i = 1; i < results.size(); ++i) {
        SCOPED_TRACE("mode mask " + std::to_string(i));
        test::expectIdentical(results[0], results[i]);
    }
}

TEST_F(FaultDormancy, ZeroRatesByteIdenticalToDisabled)
{
    // cfg.fault.enabled with every rate and probability at zero keeps
    // the injector alive (so scripted tests can drive faults) but
    // must not perturb a single bit of the simulation relative to the
    // pre-fault code path (enabled = false).
    auto trace = chaosTrace(777, 180);
    struct GridPoint
    {
        SchedulerType sched;
        std::string predictor;
    };
    for (const auto& point :
         {GridPoint{SchedulerType::Fcfs, "none"},
          GridPoint{SchedulerType::Pascal, "none"},
          GridPoint{SchedulerType::Pascal, "oracle"},
          GridPoint{SchedulerType::PascalSpec, "profile"}}) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(point.sched)) +
                     " predictor " + point.predictor);
        SystemConfig cfg = chaosConfig(
            point.sched, predictorNamed(point.predictor), 1);
        cfg.fault = fault::FaultConfig{};
        cfg.fault.enabled = false;
        auto off = cluster::RunContext::execute(cfg, trace);
        EXPECT_EQ(off.numCrashes, 0u);
        EXPECT_EQ(off.numTerminalFailures, 0u);
        EXPECT_EQ(off.goodputFraction, 1.0);

        cfg.fault.enabled = true; // All rates stay at their zeros.
        cfg.fault.crashRate = 0.0;
        cfg.fault.decommissionRate = 0.0;
        cfg.fault.stragglerRate = 0.0;
        cfg.fault.linkFailureProb = 0.0;
        auto dormant = cluster::RunContext::execute(cfg, trace);
        test::expectIdentical(off, dormant);
    }
}

} // namespace
