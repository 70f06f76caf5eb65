/**
 * @file
 * Tests for the speculative schedulers (SRPT, PASCAL-Spec) and the
 * predictive placement variant: ordering under oracle predictions,
 * predictive demotion timing (including the exact-threshold boundary,
 * startInAnswering edge cases and an idle request re-checked after a
 * predictor version bump), the no-predictor failure mode, per-dataset
 * profile rows learned through a Cluster run, and
 * the acceptance-criteria sweep {FCFS, RR, PASCAL, SRPT, PASCAL-Spec}
 * x {oracle, noisy(0.2), noisy(0.5), profile, rank} on a
 * reasoning-heavy trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/sweep_runner.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/core/pascal_spec_scheduler.hh"
#include "src/core/srpt_scheduler.hh"
#include "src/predict/oracle_predictor.hh"
#include "src/predict/profile_predictor.hh"
#include "src/workload/generator.hh"
#include "tests/scheduler_test_util.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SystemConfig;
using core::PascalSpecScheduler;
using core::SchedLimits;
using core::SrptScheduler;
using test::SchedulerHarness;

SchedLimits
specLimits(TokenCount demote = 1000, TokenCount lookahead = 200)
{
    SchedLimits l;
    l.quantum = 500;
    l.demoteThresholdTokens = demote;
    l.demoteLookaheadTokens = lookahead;
    return l;
}

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using SpecAcceptance = QuietLogs;

TEST(SrptScheduler, RequiresPredictor)
{
    SrptScheduler sched(specLimits());
    SchedulerHarness h(100000, &sched);
    sched.add(h.make(0, 0.0, 100, 200, 50));
    EXPECT_THROW(sched.plan(h.pool), FatalError);
}

TEST(SrptScheduler, OrdersByPredictedRemainingWork)
{
    predict::OraclePredictor oracle;
    SrptScheduler sched(specLimits());
    SchedulerHarness h(100000, &sched);
    sched.setPredictor(&oracle);
    EXPECT_EQ(sched.predictor(), &oracle);

    // Arrival order is long, medium, short; remaining work inverts it.
    auto* longest = h.make(0, 0.0, 100, 4000, 200);
    auto* medium = h.make(1, 1.0, 100, 1000, 100);
    auto* shortest = h.make(2, 2.0, 100, 200, 50);
    for (auto* r : {longest, medium, shortest}) {
        sched.add(r);
        h.makeResident(r);
    }

    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.decode.size(), 3u);
    EXPECT_EQ(plan.decode[0], shortest);
    EXPECT_EQ(plan.decode[1], medium);
    EXPECT_EQ(plan.decode[2], longest);

    // SRPT disables quantum accounting like FCFS.
    EXPECT_EQ(sched.schedLimits().quantum, 0);
}

TEST(PascalSpecScheduler, PredictiveDemotionFiresInsideLookahead)
{
    predict::OraclePredictor oracle;
    PascalSpecScheduler sched(specLimits(1000, 200));
    SchedulerHarness h(100000, &sched);
    sched.setPredictor(&oracle);

    // Monster: final reasoning KV = 100 + 2000 = 2100 >> 1000.
    auto* monster = h.make(0, 0.0, 100, 2000, 50);
    sched.add(monster);
    h.makeResident(monster, 500);

    // Below the window (kv 850 needs > 800): at 700 nothing happens.
    h.decodeTokens(monster, 599, 0.1, 500); // kv = 100 + 600 = 700.
    sched.plan(h.pool);
    EXPECT_FALSE(monster->demoted);

    // At kv exactly threshold - lookahead (800): still outside (the
    // window is strict).
    h.decodeTokens(monster, 100, 0.2, 500); // kv = 800.
    sched.plan(h.pool);
    EXPECT_FALSE(monster->demoted);

    // One token into the window: predicted final KV (2100) > 1000 ->
    // demoted while the actual KV (801) is far below the threshold.
    h.decodeTokens(monster, 1, 0.3, 500); // kv = 801.
    sched.plan(h.pool);
    EXPECT_TRUE(monster->demoted);
    EXPECT_LT(monster->kvTokens(), 1000);
    // Demotion restarted the quantum accounting.
    EXPECT_EQ(monster->quantaConsumed, 0);
}

TEST(PascalSpecScheduler, IdleRequestDemotesAtTheBuildAfterAVersionBump)
{
    // idle sits in the high queue inside the lookahead window (KV 850,
    // threshold 1000, window 200) behind a higher-class runner that
    // fills the one-request batch, so it never executes. The profile
    // serves a 760-token reasoning median, so idle's predicted final
    // KV is 860 and it stays. Two long completions then raise the
    // median: the version bump must re-check idle at the very next
    // boundary and demote it, on the fast path and the twin alike. The
    // bump leaves the queue order as it was, so on the fast path the
    // demotion fires in the reuse check and vetoes the reuse.
    const bool env_twin = std::getenv("PASCAL_FORCE_RESORT") != nullptr;
    for (const bool force : {false, true}) {
        SCOPED_TRACE(force ? "force-resort twin" : "default limits");
        const bool twin = force || env_twin;
        predict::DatasetProfilePredictor profile(0.5, 1);
        RequestId next_done = 100;
        auto complete = [&](TokenCount reasoning) {
            workload::RequestSpec spec;
            spec.id = next_done++;
            spec.promptTokens = 8;
            spec.reasoningTokens = reasoning;
            spec.answerTokens = 50;
            profile.observeCompletion(workload::Request(spec));
        };
        complete(760);

        SchedLimits limits = specLimits(1000, 200);
        limits.maxBatchSize = 1;
        limits.forceResort = force;
        PascalSpecScheduler sched(limits);
        sched.setPredictor(&profile);
        sched.enableIncremental();
        SchedulerHarness h(100000, &sched);
        auto* runner = h.make(0, 0.0, 100, 5000, 50);
        auto* idle = h.make(1, 1.0, 100, 5000, 50);
        idle->schedClassRank = 1; // Behind the runner in every order.
        h.makeResident(runner, limits.quantum);
        h.makeResident(idle, limits.quantum);
        h.decodeTokens(idle, 749, 0.0, limits.quantum); // KV 850.
        sched.add(runner);
        sched.add(idle);

        constexpr int kBump = 5;
        core::IterationPlan plan;
        int reuses = 0;
        for (int b = 0; b < 8; ++b) {
            SCOPED_TRACE("boundary " + std::to_string(b));
            if (b == kBump) {
                const std::uint64_t before = profile.version();
                complete(3000);
                complete(3000);
                ASSERT_GT(profile.version(), before);
            }
            const bool reused = sched.reusePlan(plan, h.pool);
            if (!reused)
                sched.buildPlan(h.pool, plan);
            reuses += reused ? 1 : 0;
            if (b == kBump && !twin) {
                EXPECT_EQ(sched.lastReuseDecline(),
                          core::PlanDecline::Veto);
            }
            ASSERT_EQ(plan.decode.size(), 1u);
            EXPECT_EQ(plan.decode[0], runner);
            EXPECT_EQ(idle->demoted, b >= kBump);
            h.decodeTokens(runner, 1, static_cast<Time>(b),
                           limits.quantum);
        }
        EXPECT_EQ(idle->kvTokens(), 850); // It never ran.
        EXPECT_EQ(reuses > 0, !twin);
    }
}

TEST(PascalSpecScheduler, ExactThresholdFinisherIsNeverDemoted)
{
    predict::OraclePredictor oracle;
    PascalSpecScheduler sched(specLimits(1000, 200));
    SchedulerHarness h(100000, &sched);
    sched.setPredictor(&oracle);

    // Final reasoning KV lands exactly ON the threshold: 100 + 900 =
    // 1000. The rule demotes only when the prediction *exceeds* the
    // threshold, and the reactive rule only when the KV exceeds it, so
    // this request keeps high priority for its entire reasoning phase.
    auto* exact = h.make(0, 0.0, 100, 900, 50);
    sched.add(exact);
    h.makeResident(exact, 500);
    h.decodeTokens(exact, 870, 0.1, 500); // kv = 971, deep in window.
    sched.plan(h.pool);
    EXPECT_FALSE(exact->demoted);

    // Last reasoning token still pending: kv = 999, predicted final
    // exactly 1000 — not *above* the threshold, so no demotion.
    h.decodeTokens(exact, 28, 0.2, 500);
    EXPECT_EQ(exact->phase(), workload::Phase::Reasoning);
    EXPECT_EQ(exact->kvTokens(), 999);
    sched.plan(h.pool);
    EXPECT_FALSE(exact->demoted);

    // Emitting it lands the KV exactly ON the threshold and flips the
    // phase; demotion no longer applies to the request at all.
    h.decodeTokens(exact, 1, 0.3, 500);
    EXPECT_EQ(exact->phase(), workload::Phase::Answering);
    EXPECT_EQ(exact->kvTokens(), 1000);
    sched.plan(h.pool);
    EXPECT_FALSE(exact->demoted);
}

TEST(PascalSpecScheduler, ReactiveSafetyNetWithoutPredictor)
{
    PascalSpecScheduler sched(specLimits(1000, 200));
    SchedulerHarness h(100000, &sched);
    // No predictor wired: behaves exactly like reactive PASCAL.

    auto* big = h.make(0, 0.0, 100, 2000, 50);
    sched.add(big);
    h.makeResident(big, 500);
    h.decodeTokens(big, 899, 0.1, 500); // kv = 1000 == threshold.
    sched.plan(h.pool);
    EXPECT_FALSE(big->demoted);

    h.decodeTokens(big, 1, 0.2, 500); // kv = 1001 > threshold.
    sched.plan(h.pool);
    EXPECT_TRUE(big->demoted);
}

TEST(PascalSpecScheduler, PredictedLengthBreaksRoundRobinTies)
{
    predict::OraclePredictor oracle;
    PascalSpecScheduler sched(specLimits());
    SchedulerHarness h(100000, &sched);
    sched.setPredictor(&oracle);

    // Same quanta consumed; the later arrival has less remaining work
    // and must be served first (plain PASCAL would pick the earlier).
    auto* early_long = h.make(0, 0.0, 100, 800, 100);
    auto* late_short = h.make(1, 1.0, 100, 300, 50);
    for (auto* r : {early_long, late_short}) {
        sched.add(r);
        h.makeResident(r, 500);
    }

    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.decode.size(), 2u);
    EXPECT_EQ(plan.decode[0], late_short);
    EXPECT_EQ(plan.decode[1], early_long);
}

TEST(PascalSpecScheduler, StartInAnsweringRidesTheLowQueue)
{
    predict::OraclePredictor oracle;
    PascalSpecScheduler sched(specLimits());
    SchedulerHarness h(100000, &sched);
    sched.setPredictor(&oracle);

    // Fig. 5 shape: reasoningTokens == 0, KV pre-generated. The
    // predictor path must never demote it or predict reasoning work.
    auto* fig5 = h.make(0, 0.0, 3000, 0, 100, true);
    auto* reasoning = h.make(1, 1.0, 100, 400, 50);
    sched.add(fig5);
    sched.add(reasoning);

    auto plan = sched.plan(h.pool);
    // The fresh startInAnswering request prewarm-allocates (its KV of
    // 3000 already exceeds the demotion threshold, which must not
    // matter: demotion only ever applies to reasoning-phase requests).
    ASSERT_EQ(plan.prewarm.size(), 1u);
    EXPECT_EQ(plan.prewarm[0], fig5);
    EXPECT_FALSE(fig5->demoted);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(*fig5),
                     0.0);
    // The reasoning request prefills as the high-priority queue head.
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], reasoning);
    EXPECT_EQ(sched.numReasoning(), 1);
}

TEST_F(SpecAcceptance, TwoDatasetRunServesEachDatasetItsOwnProfileRow)
{
    // A Cluster interns the trace's dataset labels in order of first
    // appearance, and the profile predictor keeps one row per id: after
    // the run each dataset has learned from exactly its own
    // completions and serves its own medians.
    std::vector<workload::MixComponent> mix = {
        {workload::DatasetProfile::alpacaEval(), 1.0},
        {workload::DatasetProfile::gpqa(), 1.0},
    };
    Rng rng(5);
    const auto trace = workload::generateMixedTrace(mix, 120, 4.0, rng);
    predict::PredictorConfig pred;
    pred.type = predict::PredictorType::Profile;
    cluster::RunContext ctx(
        SystemConfig::speculative(SchedulerType::PascalSpec, pred, 2));
    ctx.submit(trace);
    ctx.run();
    ASSERT_EQ(ctx.result().numUnfinished, 0u);
    const auto* profile =
        dynamic_cast<const predict::DatasetProfilePredictor*>(
            ctx.cluster().lengthPredictor());
    ASSERT_NE(profile, nullptr);

    workload::DatasetTable ids;
    std::vector<predict::RunningQuantile> reasoning(2);
    std::vector<predict::RunningQuantile> answering(2);
    for (const auto& spec : trace.requests) {
        const workload::DatasetId id = ids.intern(spec.dataset);
        ASSERT_LT(id, 2u);
        reasoning[id].add(static_cast<double>(spec.reasoningTokens));
        answering[id].add(static_cast<double>(spec.answerTokens));
    }
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(profile->observations(2), 0u);
    std::vector<double> served;
    for (workload::DatasetId id = 0; id < 2; ++id) {
        SCOPED_TRACE("dataset " + std::to_string(id));
        EXPECT_EQ(profile->observations(id), answering[id].count());
        ASSERT_GE(answering[id].count(), 8u); // Past the warmup.
        workload::RequestSpec spec;
        spec.id = 1000 + id;
        spec.promptTokens = 64;
        spec.reasoningTokens = 100;
        spec.answerTokens = 50;
        const workload::Request probe(spec, id);
        served.push_back(profile->predictRemainingTokens(probe));
        EXPECT_DOUBLE_EQ(served.back(), reasoning[id].quantile(0.5) +
                                            answering[id].quantile(0.5));
    }
    // GPQA reasons far longer than AlpacaEval.
    EXPECT_NE(served[0], served[1]);
}

/**
 * The acceptance sweep: {FCFS, RR, PASCAL} reactive anchors plus
 * {SRPT, PASCAL-Spec} x {oracle, noisy(0.2), noisy(0.5), profile,
 * rank} on a reasoning-heavy trace, all through one SweepRunner.
 *
 * A single instance with Section-III-style constrained KV capacity
 * (3x the largest request footprint) maximizes scheduling contention,
 * so the comparisons isolate the intra-instance policies: under
 * memory pressure, who runs first decides who waits.
 */
TEST_F(SpecAcceptance, SpeculationPayoffOnReasoningHeavyTrace)
{
    std::vector<workload::MixComponent> mix = {
        {workload::DatasetProfile::math500(), 1.0},
        {workload::DatasetProfile::gpqa(), 1.0},
        {workload::DatasetProfile::liveCodeBench(), 1.0},
    };
    Rng rng(71);
    auto trace = workload::generateMixedTrace(mix, 200, 8.0, rng);

    TokenCount max_footprint = 0;
    for (const auto& s : trace.requests) {
        max_footprint = std::max(max_footprint,
                                 s.promptTokens + s.reasoningTokens +
                                     s.answerTokens + 1);
    }
    TokenCount capacity =
        SystemConfig::alignKvCapacity(3 * max_footprint, 16);

    cluster::SweepRunner runner;
    auto t = runner.addTrace(trace);

    auto constrained = [&](SchedulerType sched) {
        SystemConfig cfg;
        cfg.scheduler = sched;
        cfg.placement = PlacementType::Baseline;
        cfg.numInstances = 1;
        cfg.gpuKvCapacityTokens = capacity;
        return cfg;
    };
    runner.add({"fcfs", constrained(SchedulerType::Fcfs), t, 71});
    runner.add({"rr", constrained(SchedulerType::Rr), t, 71});
    runner.add({"pascal", constrained(SchedulerType::Pascal), t, 71});

    std::vector<predict::PredictorConfig> predictors;
    {
        predict::PredictorConfig p;
        p.type = predict::PredictorType::Oracle;
        predictors.push_back(p);
        for (double sigma : {0.2, 0.5}) {
            p = {};
            p.type = predict::PredictorType::NoisyOracle;
            p.noiseSigma = sigma;
            predictors.push_back(p);
        }
        p = {};
        p.type = predict::PredictorType::Profile;
        predictors.push_back(p);
        p = {};
        p.type = predict::PredictorType::Rank;
        predictors.push_back(p);
    }
    runner.addPredictorGrid({constrained(SchedulerType::Srpt),
                             constrained(SchedulerType::PascalSpec)},
                            predictors, {t}, {71});

    ASSERT_EQ(runner.numPoints(), 13u);
    auto sweep = runner.run();

    auto mean_answering = [](const cluster::RunResult& r) {
        return r.aggregate.meanAnsweringLatency;
    };

    const auto* fcfs = sweep.find("fcfs");
    const auto* pascal = sweep.find("pascal");
    const auto* srpt_oracle =
        sweep.find("SRPT/min-kv/no-migration/oracle/t0/s71");
    const auto* spec_oracle =
        sweep.find("PASCAL-Spec/min-kv/no-migration/oracle/t0/s71");
    ASSERT_NE(fcfs, nullptr);
    ASSERT_NE(pascal, nullptr);
    ASSERT_NE(srpt_oracle, nullptr);
    ASSERT_NE(spec_oracle, nullptr);

    // Every point must complete the trace; speculation may reorder but
    // never lose work.
    for (const auto& outcome : sweep.outcomes)
        EXPECT_EQ(outcome.result.numUnfinished, 0u)
            << outcome.label;

    // Acceptance: oracle SRPT beats FCFS on mean answering latency
    // (shortest-remaining-first is the mean-latency optimum FCFS
    // forfeits by blocking short work behind long).
    EXPECT_LT(mean_answering(srpt_oracle->result),
              mean_answering(fcfs->result));

    // Acceptance: predictive demotion never *worsens* PASCAL's tail
    // TTFT under the oracle predictor on this workload — the demoted
    // set is identical, only the timing moves earlier, and the tail
    // (the monsters themselves) must not pay for the head's win.
    EXPECT_LE(spec_oracle->result.aggregate.p99Ttft,
              pascal->result.aggregate.p99Ttft);

    // The win is not a tail trade-off elsewhere either: PASCAL-Spec
    // also improves PASCAL's mean TTFT and mean answering latency.
    EXPECT_LT(spec_oracle->result.aggregate.meanTtft,
              pascal->result.aggregate.meanTtft);
    EXPECT_LT(mean_answering(spec_oracle->result),
              mean_answering(pascal->result));
}

} // namespace
