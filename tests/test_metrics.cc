/**
 * @file
 * Unit tests for per-request metric extraction and aggregation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/qoe/metrics.hh"
#include "src/qoe/qoe.hh"

namespace
{

using namespace pascal;
using qoe::aggregateMetrics;
using qoe::computeRequestMetrics;
using qoe::RequestMetrics;
using qoe::SloConfig;
using workload::Request;
using workload::RequestSpec;

Request
runPacedRequest(Time arrival, TokenCount reasoning, TokenCount answer,
                Time step)
{
    RequestSpec s;
    s.id = 1;
    s.arrival = arrival;
    s.promptTokens = 64;
    s.reasoningTokens = reasoning;
    s.answerTokens = answer;
    Request r(s);
    qoe::bindQoeTargets(r, SloConfig{});
    Time t = arrival + 0.5; // Prefill finishes 0.5 s after arrival.
    r.completePrefill(t, 0);
    for (TokenCount i = 1; i < reasoning + answer; ++i) {
        t += step;
        r.emitToken(t, 0);
    }
    return r;
}

TEST(Metrics, TimestampsMapToPaperDefinitions)
{
    // 4 reasoning + 3 answering tokens, 0.1 s/step, prefill at +0.5.
    Request r = runPacedRequest(10.0, 4, 3, 0.1);
    SloConfig slo;
    auto m = computeRequestMetrics(r, slo);

    ASSERT_TRUE(m.finished);
    // Reasoning ends at 10.5 + 3*0.1 = 10.8; first answer at 10.9.
    EXPECT_NEAR(m.reasoningLatency, 0.8, 1e-9);
    EXPECT_NEAR(m.ttft, 0.9, 1e-9);
    EXPECT_NEAR(m.ttfat, 0.1, 1e-9);
    // Finish at 11.1.
    EXPECT_NEAR(m.e2eLatency, 1.1, 1e-9);
    EXPECT_NEAR(m.answeringLatency, 0.3, 1e-9);
    EXPECT_NEAR(m.meanTpot, 0.1, 1e-9);
}

TEST(Metrics, PacedRequestMeetsSlo)
{
    Request r = runPacedRequest(0.0, 4, 50, 0.05); // Faster than pace.
    SloConfig slo;
    auto m = computeRequestMetrics(r, slo);
    EXPECT_DOUBLE_EQ(m.qoe, 1.0);
    EXPECT_FALSE(m.sloViolated);
}

TEST(Metrics, SlowGenerationViolatesSlo)
{
    Request r = runPacedRequest(0.0, 4, 50, 0.5); // 5x slower.
    SloConfig slo;
    auto m = computeRequestMetrics(r, slo);
    EXPECT_LT(m.qoe, 0.95);
    EXPECT_TRUE(m.sloViolated);
}

/** Emission times of 20 answer tokens at 50 ms, starting at 5 s. */
std::vector<Time>
lateStartEmissions()
{
    std::vector<Time> emits;
    Time t = 5.0;
    for (int i = 0; i < 20; ++i) {
        emits.push_back(t);
        t += 0.05;
    }
    return emits;
}

/** A startInAnswering request arriving at 0 (its reasoning end),
 *  bound under @p slo, that emits lateStartEmissions(). */
Request
lateStartInAnswering(const SloConfig& slo)
{
    const std::vector<Time> emits = lateStartEmissions();
    RequestSpec s;
    s.id = 2;
    s.arrival = 0.0;
    s.promptTokens = 128;
    s.reasoningTokens = 0;
    s.answerTokens = static_cast<TokenCount>(emits.size());
    s.startInAnswering = true;
    Request r(s);
    qoe::bindQoeTargets(r, slo);
    for (Time t : emits)
        r.emitToken(t, 0);
    return r;
}

TEST(Metrics, Fig5ModeChargesLateFirstToken)
{
    // startInAnswering request whose first token arrives 5 s after
    // the reasoning end: fine in main-eval mode, violation in the
    // characterization (TTFAT-anchored) mode. Each mode folds on its
    // own request.
    SloConfig main_eval;
    main_eval.qoeFromFirstToken = true;
    EXPECT_FALSE(
        computeRequestMetrics(lateStartInAnswering(main_eval), main_eval)
            .sloViolated);

    SloConfig characterization;
    characterization.qoeFromFirstToken = false;
    auto m = computeRequestMetrics(lateStartInAnswering(characterization),
                                   characterization);
    EXPECT_TRUE(m.sloViolated);
    EXPECT_LT(m.qoe, 0.95);
}

TEST(Metrics, StartInAnsweringScoresLikeTheCurves)
{
    const auto emits = lateStartEmissions();
    for (bool from_first : {true, false}) {
        SloConfig slo;
        slo.qoeFromFirstToken = from_first;
        auto m = computeRequestMetrics(lateStartInAnswering(slo), slo);
        ASSERT_TRUE(m.finished);
        const Time start =
            from_first ? emits.front() : 0.0 + slo.ttfatTarget;
        EXPECT_NEAR(m.qoe,
                    qoe::buildQoeCurves(emits, start, slo.tpotTarget).qoe,
                    1e-12);
        EXPECT_NEAR(m.meanTpot, 0.05, 1e-12);
    }
}

/** A classes-on config whose Interactive requests demote on expiry. */
qoe::SloClassConfig
demotingClasses()
{
    qoe::SloClassConfig classes;
    classes.enabled = true;
    classes.classes[workload::sloClassIndex(workload::SloClass::Interactive)]
        .demoteOnExpiry = true;
    return classes;
}

TEST(Metrics, MidAnswerDemotionScoresAgainstBatchTargets)
{
    // An Interactive request answering at 80 ms/token: behind its own
    // 50 ms TPOT target, ahead of Batch's 200 ms. It is demoted to
    // best-effort after its first answer tokens, so the targets it is
    // scored against change mid-answer.
    const qoe::SloClassConfig classes = demotingClasses();
    SloConfig slo;
    for (bool from_first : {true, false}) {
        slo.qoeFromFirstToken = from_first;
        RequestSpec s;
        s.id = 5;
        s.arrival = 0.0;
        s.promptTokens = 64;
        s.reasoningTokens = 3;
        s.answerTokens = 30;
        s.sloClass = workload::SloClass::Interactive;
        Request r(s);
        qoe::bindQoeTargets(r, slo, &classes);
        ASSERT_NE(r.bestEffortQoe, nullptr);
        std::vector<Time> emits;
        r.completePrefill(0.4, 0);
        r.emitToken(0.5, 0);
        r.emitToken(0.6, 0); // </think>
        Time t = 1.0;
        for (TokenCount i = 0; i < s.answerTokens; ++i) {
            if (i == 3)
                r.bestEffort = true; // Demoted mid-answer.
            r.emitToken(t, 0);
            emits.push_back(t);
            t += i == 10 ? 4.0 : 0.08; // One preemption gap.
        }

        const qoe::SloClassParams& batch =
            classes.of(workload::SloClass::Batch);
        const Time start =
            from_first ? emits.front() : 0.6 + batch.ttfatTarget;
        auto m = computeRequestMetrics(r, slo, &classes);
        EXPECT_TRUE(m.bestEffort);
        EXPECT_NEAR(m.qoe,
                    qoe::buildQoeCurves(emits, start, batch.tpotTarget).qoe,
                    1e-12);
        // The Interactive targets would have scored it lower.
        const qoe::SloClassParams& own =
            classes.of(workload::SloClass::Interactive);
        const Time own_start =
            from_first ? emits.front() : 0.6 + own.ttfatTarget;
        EXPECT_LT(qoe::buildQoeCurves(emits, own_start, own.tpotTarget).qoe,
                  m.qoe);
    }
}

TEST(Metrics, BatchRequestFoldsOneTargetSet)
{
    const qoe::SloClassConfig classes = demotingClasses();
    RequestSpec s;
    s.id = 6;
    s.arrival = 0.0;
    s.promptTokens = 64;
    s.reasoningTokens = 3;
    s.answerTokens = 4;
    s.sloClass = workload::SloClass::Batch;
    Request r(s);
    qoe::bindQoeTargets(r, SloConfig{}, &classes);
    EXPECT_EQ(r.bestEffortQoe, nullptr);
}

TEST(MetricsDeathTest, ScoringUnderOtherTargetsPanics)
{
    // Bound under the default SLO, scored under a tighter TPOT.
    SloConfig tight;
    tight.tpotTarget = 0.02;
    EXPECT_DEATH(computeRequestMetrics(runPacedRequest(0.0, 4, 20, 0.05),
                                       tight),
                 "request 1 is scored under QoE targets");

    // Bound with classes off, scored with them on under a Standard
    // class that demotes on expiry (and so would fold Batch's targets
    // as well).
    qoe::SloClassConfig classes = demotingClasses();
    classes.classes[workload::sloClassIndex(workload::SloClass::Standard)]
        .demoteOnExpiry = true;
    EXPECT_DEATH(computeRequestMetrics(runPacedRequest(0.0, 4, 20, 0.05),
                                       SloConfig{}, &classes),
                 "request 1 is scored under QoE targets");

    // Never bound at all.
    RequestSpec s;
    s.id = 7;
    s.arrival = 0.0;
    s.promptTokens = 64;
    s.reasoningTokens = 0;
    s.answerTokens = 1;
    s.startInAnswering = true;
    Request unbound(s);
    unbound.emitToken(1.0, 0);
    EXPECT_DEATH(computeRequestMetrics(unbound, SloConfig{}),
                 "request 7 is scored under QoE targets");
}

TEST(Metrics, UnfinishedRequestMarked)
{
    RequestSpec s;
    s.id = 3;
    s.arrival = 0.0;
    s.promptTokens = 64;
    s.reasoningTokens = 10;
    s.answerTokens = 10;
    Request r(s);
    r.completePrefill(1.0, 0);
    auto m = computeRequestMetrics(r, SloConfig{});
    EXPECT_FALSE(m.finished);
    EXPECT_DOUBLE_EQ(m.e2eLatency, 0.0);
}

TEST(Metrics, AggregateRollsUp)
{
    SloConfig slo;
    std::vector<RequestMetrics> ms;
    ms.push_back(
        computeRequestMetrics(runPacedRequest(0.0, 4, 20, 0.05), slo));
    ms.push_back(
        computeRequestMetrics(runPacedRequest(1.0, 4, 20, 0.5), slo));

    auto agg = aggregateMetrics(ms);
    EXPECT_EQ(agg.numRequests, 2u);
    EXPECT_EQ(agg.numFinished, 2u);
    EXPECT_NEAR(agg.sloViolationRate, 0.5, 1e-9);
    EXPECT_GT(agg.makespan, 0.0);
    EXPECT_GT(agg.throughputTokensPerSec, 0.0);
    EXPECT_GT(agg.p99Ttft, agg.p50Ttft - 1e-12);
    EXPECT_GT(agg.meanQoe, 0.0);
}

TEST(Metrics, AggregateEmptyIsZeroed)
{
    auto agg = aggregateMetrics({});
    EXPECT_EQ(agg.numRequests, 0u);
    EXPECT_DOUBLE_EQ(agg.throughputTokensPerSec, 0.0);
}

TEST(Metrics, AggregateSkipsUnfinished)
{
    SloConfig slo;
    RequestSpec s;
    s.id = 9;
    s.arrival = 0.0;
    s.promptTokens = 64;
    s.reasoningTokens = 10;
    s.answerTokens = 10;
    Request r(s);
    std::vector<RequestMetrics> ms{computeRequestMetrics(r, slo)};
    auto agg = aggregateMetrics(ms);
    EXPECT_EQ(agg.numRequests, 1u);
    EXPECT_EQ(agg.numFinished, 0u);
}

} // namespace
