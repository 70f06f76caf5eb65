/**
 * @file
 * Lazy-accrual invariance tests.
 *
 * The lazy phase-time accrual replaces the O(hosted) per-iteration
 * accrueAll walk with a per-request {bucket, since} stamp that is
 * restamped at state changes and settled at observation points. Its
 * contract: PASCAL_FORCE_ACCRUE (the eager verification walk that
 * recomputes every hosted request's standing bucket each iteration
 * and panics on a stale stamp) must run the whole
 * {FCFS, RR, PASCAL, SRPT, PASCAL-Spec} x predictor grid without
 * tripping, and RunResults — including the per-request phase-time
 * buckets, compared bit-exactly — must be byte-identical across the
 * lazy and verify modes.
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
using cluster::SchedulerType;
using cluster::SystemConfig;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using AccrualInvariance = QuietLogs;
using AccrualUnit = ::testing::Test;

/** Churn-heavy trace: arrivals, completions, transitions, migrations,
 *  swaps, demotions, and preemptions all fire, so every restamp point
 *  is exercised. */
workload::Trace
churnTrace(std::uint64_t seed, int n = 120)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {300.0, 0.8, 32, 1500};
    profile.answering = {120.0, 0.7, 16, 600};
    return workload::generateTrace(profile, n, 12.0, rng);
}

SystemConfig
constrained(SchedulerType sched, predict::PredictorConfig pred,
            PlacementType placement)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = placement;
    cfg.predictor = pred;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = 4096; // Tight: forces swaps/evictions.
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 600;
    cfg.limits.demoteLookaheadTokens = 128;
    return cfg;
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
    }
    return cfg;
}

/**
 * Run @p cfg on @p trace lazy and force-accrue and require
 * byte-identical RunResults. The force-accrue runs double as
 * correctness proofs: the eager walk panics (failing the test) if any
 * lazily maintained stamp went stale.
 */
void
expectAllModesIdentical(SystemConfig cfg, const workload::Trace& trace)
{
    cfg.limits.forceAccrue = false;
    auto fast = cluster::RunContext::execute(cfg, trace);

    cfg.limits.forceAccrue = true;
    auto verified = cluster::RunContext::execute(cfg, trace);
    test::expectIdentical(fast, verified);
}

TEST_F(AccrualInvariance, ReactiveSchedulersAcrossPredictors)
{
    auto trace = churnTrace(4242);
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr,
          SchedulerType::Pascal}) {
        for (const std::string kind : {"none", "oracle", "noisy",
                                       "profile"}) {
            SCOPED_TRACE("scheduler " +
                         std::to_string(static_cast<int>(sched)) +
                         " predictor " + kind);
            auto pred = predictorNamed(kind);
            auto placement = kind == "none"
                                 ? PlacementType::Pascal
                                 : PlacementType::PascalPredictive;
            expectAllModesIdentical(constrained(sched, pred, placement),
                                    trace);
        }
    }
}

TEST_F(AccrualInvariance, SpeculativeSchedulersAcrossPredictors)
{
    auto trace = churnTrace(99);
    for (SchedulerType sched :
         {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        for (const std::string kind : {"oracle", "noisy", "profile"}) {
            SCOPED_TRACE("scheduler " +
                         std::to_string(static_cast<int>(sched)) +
                         " predictor " + kind);
            auto pred = predictorNamed(kind);
            expectAllModesIdentical(
                constrained(sched, pred,
                            PlacementType::PascalPredictive),
                trace);
        }
    }
}

TEST_F(AccrualInvariance, HorizonCutSettlesInFlightRequestsIdentically)
{
    // A horizon that guillotines the run mid-flight: scoring settles
    // the still-hosted requests' lazily accrued time at collection,
    // which must also be mode-invariant (and must not book anything
    // for requests that never arrived).
    auto trace = churnTrace(7, 80);
    SystemConfig cfg = constrained(SchedulerType::Pascal,
                                   predictorNamed("none"),
                                   PlacementType::Pascal);
    cfg.maxSimTime = 3.0;
    cfg.limits.forceAccrue = false;
    auto fast = cluster::RunContext::execute(cfg, trace);
    EXPECT_GT(fast.numUnfinished, 0u);
    cfg.limits.forceAccrue = true;
    auto reference = cluster::RunContext::execute(cfg, trace);
    test::expectIdentical(fast, reference);
}

TEST_F(AccrualInvariance, BucketsStillTilePhaseLatencies)
{
    // Independent of mode equivalence, the settled buckets must tile
    // [arrival, reasoningEnd] and [reasoningEnd, finish] — the
    // Fig. 4/5 semantics the lazy bookkeeping may not distort.
    auto trace = churnTrace(21, 60);
    SystemConfig cfg = constrained(SchedulerType::Pascal,
                                   predictorNamed("none"),
                                   PlacementType::Pascal);
    auto result = cluster::RunContext::execute(cfg, trace);
    int finished = 0;
    for (const auto& m : result.perRequest) {
        if (!m.finished)
            continue;
        ++finished;
        EXPECT_NEAR(m.reasoningBuckets.total(), m.reasoningLatency,
                    1e-6);
        EXPECT_NEAR(m.answeringBuckets.total(),
                    m.e2eLatency - m.reasoningLatency, 1e-6);
    }
    EXPECT_GT(finished, 0);
}

TEST_F(AccrualUnit, StampSettlesUnderOldKindThenSwitches)
{
    workload::RequestSpec s;
    s.id = 0;
    s.arrival = 0.0;
    s.promptTokens = 16;
    s.reasoningTokens = 10;
    s.answerTokens = 10;
    workload::Request r(s);

    r.resetAccrual(1.0, workload::BucketKind::Blocked);
    EXPECT_EQ(r.accrualKind, workload::BucketKind::Blocked);

    // [1, 3] accrues Blocked; the stamp switches to Executed at 3.
    r.stampAccrual(3.0, workload::BucketKind::Executed);
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.blocked, 2.0);
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.executed, 0.0);

    // [3, 4.5] settles Executed without changing the stamp.
    r.settleAccrual(4.5);
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.executed, 1.5);
    EXPECT_EQ(r.accrualKind, workload::BucketKind::Executed);

    // Re-stamping to the same kind is a settlement, not a reset.
    r.stampAccrual(5.0, workload::BucketKind::Executed);
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.executed, 2.0);
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.total(), 4.0);
}

} // namespace
