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
 *
 * The same modes pin the decode batch's step log (cluster::DecodeBatch):
 * lazily, a batch member's buckets and QoE folds settle only when its
 * stretch ends, while the force twin settles every stretch at every
 * step and checks the batch's KV accounting. The comparisons span the
 * log's axes: chunked prefill on and off, block sizes 1 and 16, a
 * best-effort demotion mid-answer, horizons that cut a step in flight,
 * an answer longer than the log, crashes and </think> migrations.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/decode_batch.hh"
#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/model/kv_pool.hh"
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

TEST_F(AccrualInvariance, ChunkedPrefillAndBlockSizes)
{
    // Chunked prefill mixes prefill and decode in one step (no batch
    // stall); block size 1 opens a block at every member's every token.
    auto trace = churnTrace(31, 80);
    for (bool chunked : {false, true}) {
        for (TokenCount block : {1, 16}) {
            for (SchedulerType sched :
                 {SchedulerType::Fcfs, SchedulerType::Rr,
                  SchedulerType::Pascal}) {
                SCOPED_TRACE("chunked " + std::to_string(chunked) +
                             " block " + std::to_string(block) +
                             " scheduler " +
                             std::to_string(static_cast<int>(sched)));
                SystemConfig cfg = constrained(
                    sched, predictorNamed("none"), PlacementType::Pascal);
                cfg.limits.chunkedPrefill = chunked;
                cfg.kvBlockSizeTokens = block;
                expectAllModesIdentical(cfg, trace);
            }
        }
    }
}

TEST_F(AccrualInvariance, BestEffortDemotionMidAnswer)
{
    // Interactive deadlines shorter than a typical answer: requests
    // are demoted while they answer, so their scores come from the
    // best-effort fold the step log settles alongside the own one.
    Rng rng(5);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {120.0, 0.6, 16, 400};
    profile.answering = {200.0, 0.5, 64, 600};
    auto trace = workload::generateTrace(profile, 90, 10.0, rng);
    workload::assignSloClasses(trace);
    SystemConfig cfg = constrained(SchedulerType::Pascal,
                                   predictorNamed("none"),
                                   PlacementType::Pascal);
    cfg.gpuKvCapacityTokens = 16384;
    cfg.sloClasses.enabled = true;
    cfg.sloClasses.overloadControl = false;
    for (auto& c : cfg.sloClasses.classes)
        c.demoteOnExpiry = true;
    cfg.sloClasses
        .classes[workload::sloClassIndex(workload::SloClass::Interactive)]
        .relativeDeadline = 6.0;
    cfg.limits.forceAccrue = false;
    auto lazy = cluster::RunContext::execute(cfg, trace);
    int demoted_answering = 0;
    for (const auto& m : lazy.perRequest)
        demoted_answering += m.finished && m.bestEffort ? 1 : 0;
    EXPECT_GT(demoted_answering, 0);
    cfg.limits.forceAccrue = true;
    test::expectIdentical(lazy,
                          cluster::RunContext::execute(cfg, trace));
}

TEST_F(AccrualInvariance, HorizonsCuttingAStepInFlight)
{
    // Scoring at a horizon settles every open stretch, then books the
    // step in flight as an ordinary interval. Each horizon here cuts
    // some request's first answering step, which still stamps its
    // blocking latency.
    auto trace = churnTrace(7, 80);
    SystemConfig cfg = constrained(SchedulerType::Pascal,
                                   predictorNamed("none"),
                                   PlacementType::Pascal);
    const auto full = cluster::RunContext::execute(cfg, trace);
    int cuts = 0;
    for (const auto& m : full.perRequest) {
        if (!m.finished || cuts == 4)
            continue;
        const Time scheduled =
            m.arrival + m.reasoningLatency + m.blockingLatency;
        const Time first = m.arrival + m.ttft;
        cfg.maxSimTime = 0.5 * (scheduled + first);
        SCOPED_TRACE("horizon " + std::to_string(cfg.maxSimTime));
        ++cuts;
        cfg.limits.forceAccrue = false;
        cluster::RunContext lazy(cfg);
        lazy.submit(trace);
        lazy.run();
        bool in_flight = false;
        for (const auto& inst : lazy.cluster().getInstances())
            in_flight = in_flight || inst->hasStepInFlight();
        EXPECT_TRUE(in_flight);
        const auto cut = lazy.result();
        const auto& row = cut.perRequest[static_cast<std::size_t>(m.id)];
        EXPECT_EQ(row.ttft, 0.0) << "request " << m.id;
        EXPECT_EQ(row.blockingLatency, m.blockingLatency)
            << "request " << m.id;
        cfg.limits.forceAccrue = true;
        test::expectIdentical(cut,
                              cluster::RunContext::execute(cfg, trace));
    }
    EXPECT_EQ(cuts, 4);
}

TEST_F(AccrualInvariance, FcfsAnswerLongerThanTheStepLog)
{
    // Alone on its instance, an FCFS answer runs on reused plans with
    // no stretch end for more steps than the log holds.
    constexpr TokenCount kAnswer =
        3 * cluster::DecodeBatch::kLogCapacity;
    workload::Trace trace;
    for (int i = 0; i < 2; ++i) {
        workload::RequestSpec s;
        s.id = i;
        s.arrival = 0.5 * i;
        s.promptTokens = 200;
        s.reasoningTokens = 40 + 30 * i;
        s.answerTokens = kAnswer - 100 * i;
        s.dataset = "alpaca";
        trace.requests.push_back(s);
    }
    SystemConfig cfg = constrained(SchedulerType::Fcfs,
                                   predictorNamed("none"),
                                   PlacementType::Pascal);
    cfg.numInstances = 1;
    cfg.gpuKvCapacityTokens = 100000;
    cfg.limits.forceAccrue = false;
    auto lazy = cluster::RunContext::execute(cfg, trace);
    ASSERT_EQ(lazy.perRequest.size(), 2u);
    for (const auto& m : lazy.perRequest) {
        EXPECT_TRUE(m.finished);
        EXPECT_GT(m.qoe, 0.0);
        EXPECT_NEAR(m.answeringBuckets.total(),
                    m.e2eLatency - m.reasoningLatency, 1e-6);
    }
    cfg.limits.forceAccrue = true;
    test::expectIdentical(lazy, cluster::RunContext::execute(cfg, trace));
}

TEST_F(AccrualInvariance, CrashesAndThinkEndMigrations)
{
    // Crashes abandon steps mid-stretch (orphans settle through the
    // last logged step, then book the partial step); PASCAL migrates
    // requests at </think>, detaching them from a batch.
    auto trace = churnTrace(17, 100);
    SystemConfig cfg = constrained(SchedulerType::Pascal,
                                   predictorNamed("none"),
                                   PlacementType::Pascal);
    cfg.numInstances = 3;
    cfg.fault.enabled = true;
    cfg.fault.seed = 3;
    cfg.fault.crashRate = 0.5;
    cfg.fault.mttr = 1.0;
    cfg.fault.preserveCpuKv = true;
    cfg.fault.retryBudget = 1000;
    cfg.fault.backoffBase = 0.1;
    cfg.fault.backoffCap = 1.0;
    cfg.limits.forceAccrue = false;
    auto lazy = cluster::RunContext::execute(cfg, trace);
    EXPECT_GT(lazy.numCrashes, 0u);
    EXPECT_GT(lazy.aggregate.totalMigrations, 0);
    cfg.limits.forceAccrue = true;
    test::expectIdentical(lazy, cluster::RunContext::execute(cfg, trace));
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

TEST_F(AccrualUnit, StepLogReplaysThePerStepArithmetic)
{
    // Two requests decode through a DecodeBatch and, in lockstep,
    // through the per-step calls it replaces (stamp, settle and
    // emitToken each step, growGpu per member). Irregular step lengths,
    // a prefill stall, idle gaps, a finish mid-run and one stretch
    // longer than the log must leave bit-identical buckets, QoE folds
    // and pool accounting.
    constexpr TokenCount kBlock = 4;
    const qoe::QoeTargets own{0.02, 1.0, true};
    const qoe::QoeTargets relaxed{0.05, 4.0, true};
    auto make = [&](RequestId id, TokenCount prompt,
                    TokenCount reasoning, TokenCount answer) {
        workload::RequestSpec s;
        s.id = id;
        s.promptTokens = prompt;
        s.reasoningTokens = reasoning;
        s.answerTokens = answer;
        auto r = std::make_unique<workload::Request>(s);
        r->qoe = qoe::QoeFold(own);
        r->bestEffortQoe = std::make_unique<qoe::QoeFold>(relaxed);
        r->resetAccrual(0.0, workload::BucketKind::Blocked);
        return r;
    };
    const TokenCount long_answer = 2 * cluster::DecodeBatch::kLogCapacity;
    std::vector<std::unique_ptr<workload::Request>> lazy, eager;
    for (auto* side : {&lazy, &eager}) {
        side->push_back(make(0, 37, 5, long_answer));
        side->push_back(make(1, 50, 20, 30));
    }
    model::KvPool lazy_pool(1 << 20, kBlock);
    model::KvPool eager_pool(1 << 20, kBlock);
    cluster::DecodeBatch batch(lazy_pool);
    for (std::size_t i = 0; i < 2; ++i) {
        const TokenCount kv = lazy[i]->kvTokens();
        lazy[i]->kvSlot = lazy_pool.allocGpu(lazy[i]->id(), kv);
        eager[i]->kvSlot = eager_pool.allocGpu(eager[i]->id(), kv);
    }

    Time now = 0.25;
    std::vector<workload::Request*> decode = {lazy[0].get(),
                                              lazy[1].get()};
    std::vector<workload::Request*> leavers;
    std::vector<workload::Request*> joiners;
    batch.beginStep(now);
    batch.reshape(decode, now, leavers, joiners);
    ASSERT_TRUE(leavers.empty());
    ASSERT_EQ(joiners, decode);
    for (auto& r : eager)
        r->stampAccrual(now, workload::BucketKind::Executed);

    for (int step = 0; !lazy[0]->finished(); ++step) {
        const bool stall = step == 7;
        if (step % 3 == 1) // Idle gap: the next step starts late.
            now += 0.0123456789 * static_cast<double>(1 + step % 5);
        const Time start = now;
        batch.beginStep(start);
        for (auto& r : eager) {
            if (!r->finished())
                r->stampAccrual(start, workload::BucketKind::Executed);
        }
        now = start + 0.013 + 0.0007 * (step % 9);
        if (stall) {
            batch.logStep(now, false);
            continue;
        }
        batch.growStep();
        std::vector<workload::Request*> woken;
        for (auto* r : batch.members()) {
            if (r->advanceDecode(0))
                woken.push_back(r);
        }
        batch.logStep(now, true);
        for (auto* r : woken) {
            if (r->atMilestone()) {
                batch.settle(r);
                r->stampMilestones(now);
            }
            if (r->finished())
                batch.leave(r);
        }
        for (auto& r : eager) {
            if (r->finished())
                continue;
            eager_pool.growGpu(r->kvSlot, 1);
            r->settleAccrual(now);
            r->emitToken(now, 0);
        }
        ASSERT_EQ(lazy_pool.gpuUsed(), eager_pool.gpuUsed()) << step;
    }
    batch.clear();
    for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        const auto& a = *lazy[i];
        const auto& b = *eager[i];
        EXPECT_TRUE(a.finished());
        EXPECT_EQ(a.generated(), b.generated());
        EXPECT_EQ(a.reasoningBuckets.executed,
                  b.reasoningBuckets.executed);
        EXPECT_EQ(a.answeringBuckets.executed,
                  b.answeringBuckets.executed);
        EXPECT_EQ(a.firstAnswer, b.firstAnswer);
        EXPECT_EQ(a.finish, b.finish);
        const TokenCount n = a.spec().answerTokens;
        EXPECT_EQ(a.qoe.score(n), b.qoe.score(n));
        EXPECT_EQ(a.bestEffortQoe->score(n), b.bestEffortQoe->score(n));
        EXPECT_EQ(lazy_pool.tokensOf(a.kvSlot),
                  eager_pool.tokensOf(b.kvSlot));
    }
    EXPECT_EQ(lazy_pool.chargedGpuTokens(), lazy_pool.gpuUsed());
}

} // namespace
