/**
 * @file
 * Tests for the speculative schedulers (SRPT, PASCAL-Spec) and the
 * predictive placement variant: ordering under oracle predictions,
 * predictive demotion timing (including the exact-threshold boundary
 * and startInAnswering edge cases), the no-predictor failure mode, and
 * the acceptance-criteria sweep {FCFS, RR, PASCAL, SRPT, PASCAL-Spec}
 * x {oracle, noisy(0.2), noisy(0.5), profile, rank} on a
 * reasoning-heavy trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/sweep_runner.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/core/pascal_spec_scheduler.hh"
#include "src/core/srpt_scheduler.hh"
#include "src/predict/oracle_predictor.hh"
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
    SchedulerHarness h(100000);
    SrptScheduler sched(specLimits());
    sched.add(h.make(0, 0.0, 100, 200, 50));
    EXPECT_THROW(sched.plan(h.pool), FatalError);
}

TEST(SrptScheduler, OrdersByPredictedRemainingWork)
{
    SchedulerHarness h(100000);
    predict::OraclePredictor oracle;
    SrptScheduler sched(specLimits());
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

/** Exposes the protected warm-started sort. */
struct WarmSortProbe : SrptScheduler
{
    using SrptScheduler::SrptScheduler;
    using SrptScheduler::SortMemo;
    using SrptScheduler::warmSort;
};

TEST(SpecSchedulers, WarmSortMatchesColdSort)
{
    // Two queues over one pool. Each round re-keys some members (ten
    // score values, so ties fall through to arrival and id) and moves
    // some between the queues or out of both, and each queue arrives
    // in a rotated order. The warm sort must equal std::sort each time.
    SchedulerHarness h(100000);
    std::vector<workload::Request*> pool;
    std::vector<std::int64_t> queue_of;
    Rng rng(2024);
    for (int i = 0; i < 200; ++i) {
        pool.push_back(h.make(i, static_cast<double>(i % 37), 10, 10, 10));
        queue_of.push_back(rng.uniformInt(-1, 1));
    }
    WarmSortProbe probe(specLimits());
    WarmSortProbe::SortMemo memos[2];
    for (std::size_t round = 0; round < 500; ++round) {
        for (std::size_t i = 0; i < pool.size(); ++i) {
            double u = rng.uniformReal(0.0, 1.0);
            auto v = rng.uniformInt(0, 9);
            if (u < 0.05)
                queue_of[i] = v % 3 - 1;
            else if (u < 0.15)
                pool[i]->schedScore = static_cast<double>(v);
            else if (u < 0.18)
                ++pool[i]->quantaConsumed;
            else if (u < 0.19)
                pool[i]->schedClassRank = static_cast<std::uint8_t>(v % 3);
        }
        for (int q = 0; q < 2; ++q) {
            std::vector<workload::Request*> items;
            for (std::size_t i = 0; i < pool.size(); ++i) {
                std::size_t k = (i + round) % pool.size();
                if (queue_of[k] == q)
                    items.push_back(pool[k]);
            }
            auto cold = items;
            std::sort(cold.begin(), cold.end(), core::PascalQueueOrder{});
            probe.warmSort(items, memos[q], core::PascalQueueOrder{});
            ASSERT_EQ(items, cold) << "round " << round << " queue " << q;
        }
    }
}

TEST(PascalSpecScheduler, PredictiveDemotionFiresInsideLookahead)
{
    SchedulerHarness h(100000);
    predict::OraclePredictor oracle;
    PascalSpecScheduler sched(specLimits(1000, 200));
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

TEST(PascalSpecScheduler, ExactThresholdFinisherIsNeverDemoted)
{
    SchedulerHarness h(100000);
    predict::OraclePredictor oracle;
    PascalSpecScheduler sched(specLimits(1000, 200));
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
    SchedulerHarness h(100000);
    PascalSpecScheduler sched(specLimits(1000, 200));
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
    SchedulerHarness h(100000);
    predict::OraclePredictor oracle;
    PascalSpecScheduler sched(specLimits());
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
    SchedulerHarness h(100000);
    predict::OraclePredictor oracle;
    PascalSpecScheduler sched(specLimits());
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
