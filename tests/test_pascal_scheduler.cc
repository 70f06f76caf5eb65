/**
 * @file
 * Unit tests for PASCAL's hierarchical intra-instance scheduler:
 * reasoning-first allocation, answering evicted before reasoning,
 * per-queue round robin, demotion, and monitor counters (Section IV-C).
 */

#include <gtest/gtest.h>

#include "src/common/log.hh"
#include "src/core/pascal_scheduler.hh"
#include "tests/scheduler_test_util.hh"

namespace
{

using namespace pascal;
using core::PascalScheduler;
using core::SchedLimits;
using test::SchedulerHarness;

SchedLimits
limits(TokenCount quantum = 4, TokenCount demote = 5000)
{
    SchedLimits l;
    l.quantum = quantum;
    l.demoteThresholdTokens = demote;
    l.maxBatchSize = 64;
    l.maxPrefillTokens = 4096;
    l.maxPrefillSeqs = 8;
    return l;
}

/** Drive a resident request to its answering phase. */
void
makeAnswering(SchedulerHarness& h, workload::Request* r,
              TokenCount quantum = 4)
{
    h.makeResident(r, quantum);
    h.decodeTokens(r, r->spec().reasoningTokens - 1, 0.5, quantum);
    ASSERT_EQ(r->phase(), workload::Phase::Answering);
}

TEST(PascalSched, RequiresPositiveQuantum)
{
    EXPECT_THROW(PascalScheduler(limits(0)), FatalError);
}

TEST(PascalSched, ReasoningOutranksAnswering)
{
    PascalScheduler sched(limits());
    SchedulerHarness h(250, &sched);
    auto* ans = h.make(0, 0.0, 99, 2, 50); // Answering, kv 101.
    auto* rea = h.make(1, 5.0, 99, 50, 10); // New reasoning request.
    sched.add(ans);
    sched.add(rea);
    makeAnswering(h, ans);

    // Reasoning (arrived later!) gets KV first: prefill cost 100,
    // budget 150; answering cost 103 fits too.
    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], rea);
}

TEST(PascalSched, AnsweringEvictedBeforeReasoning)
{
    PascalScheduler sched(limits());
    SchedulerHarness h(220, &sched);
    auto* ans = h.make(0, 0.0, 99, 2, 50); // Answering, kv 101.
    auto* rea = h.make(1, 5.0, 149, 50, 10); // Reasoning, prompt 149.
    sched.add(ans);
    sched.add(rea);
    makeAnswering(h, ans);

    // Reasoning needs 150 of 220; answering (102 resident + 1) no
    // longer fits (150 + 102 > 220) and cannot even stay resident
    // (keep budget 70 < 101): evicted.
    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], rea);
    ASSERT_EQ(plan.swapOut.size(), 1u);
    EXPECT_EQ(plan.swapOut[0], ans);
}

TEST(PascalSched, AnsweringUsesLeftoverMemory)
{
    PascalScheduler sched(limits(500));
    SchedulerHarness h(100000, &sched);
    auto* ans = h.make(0, 0.0, 128, 2, 50);
    auto* rea = h.make(1, 1.0, 128, 50, 10);
    sched.add(ans);
    sched.add(rea);
    makeAnswering(h, ans, 500);
    h.makeResident(rea, 500);

    // Plenty of memory: both decode together (continuous batching).
    auto plan = sched.plan(h.pool);
    EXPECT_EQ(plan.decode.size(), 2u);
    EXPECT_TRUE(plan.swapOut.empty());
}

TEST(PascalSched, DemotionMovesMonsterReasoningToLowQueue)
{
    PascalScheduler sched(limits(500, /*demote=*/200));
    SchedulerHarness h(100000, &sched);
    auto* big = h.make(0, 0.0, 128, 500, 10);
    auto* fresh = h.make(1, 1.0, 128, 50, 10);
    sched.add(big);
    sched.add(fresh);
    h.makeResident(big, 500);
    h.decodeTokens(big, 100, 0.5, 500); // kv 229 > demote threshold.
    h.makeResident(fresh, 500);

    EXPECT_EQ(sched.numReasoning(), 2); // Demotion applies at plan().
    auto plan = sched.plan(h.pool);
    EXPECT_TRUE(big->demoted);
    EXPECT_EQ(sched.numReasoning(), 1); // Only the fresh request.
    EXPECT_EQ(plan.decode.size(), 2u);  // Both still run (memory ok).
}

TEST(PascalSched, DemotedRequestLosesToReasoningUnderPressure)
{
    PascalScheduler sched(limits(500, /*demote=*/200));
    SchedulerHarness h(400, &sched);
    auto* big = h.make(0, 0.0, 128, 500, 10);
    sched.add(big);
    h.makeResident(big, 500);
    h.decodeTokens(big, 150, 0.5, 500); // kv 279 > 200: will demote.

    auto* fresh = h.make(1, 1.0, 128, 50, 10);
    sched.add(fresh);

    // fresh prefill cost 129; big resident cost 280. 129 + 280 > 400:
    // big unselected, keep budget 271 < 279 -> evicted despite being
    // in the reasoning phase (it is demoted).
    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], fresh);
    ASSERT_EQ(plan.swapOut.size(), 1u);
    EXPECT_EQ(plan.swapOut[0], big);
    EXPECT_TRUE(big->demoted);
}

TEST(PascalSched, PhaseTransitionResetsQuantum)
{
    PascalScheduler sched(limits(4));
    SchedulerHarness h(10000, &sched);
    auto* r = h.make(0, 0.0, 128, 8, 10);
    sched.add(r);
    h.makeResident(r, 4);
    h.decodeTokens(r, 7, 0.5, 4); // 8 tokens: 2 quanta, now answering.
    ASSERT_EQ(r->quantaConsumed, 2);

    sched.onPhaseTransition(r);
    EXPECT_EQ(r->quantaConsumed, 0);
    EXPECT_EQ(r->quantumTokens, 0);
}

TEST(PascalSched, FreshAnsweringCounter)
{
    PascalScheduler sched(limits(4));
    SchedulerHarness h(100000, &sched);
    auto* a1 = h.make(0, 0.0, 128, 2, 50);
    auto* a2 = h.make(1, 1.0, 128, 2, 50);
    sched.add(a1);
    sched.add(a2);
    makeAnswering(h, a1);
    makeAnswering(h, a2);
    sched.onPhaseTransition(a1);
    sched.onPhaseTransition(a2);
    EXPECT_EQ(sched.numFreshAnswering(), 2);

    // a1 burns a full quantum of answering tokens: no longer fresh.
    h.decodeTokens(a1, 4, 2.0, 4);
    EXPECT_EQ(sched.numFreshAnswering(), 1);
}

TEST(PascalSched, LowQueueRoundRobinOrder)
{
    PascalScheduler sched(limits(4));
    SchedulerHarness h(300, &sched);
    auto* a1 = h.make(0, 0.0, 99, 2, 50); // kv 101.
    auto* a2 = h.make(1, 1.0, 99, 2, 50); // kv 101.
    sched.add(a1);
    sched.add(a2);
    makeAnswering(h, a1);
    makeAnswering(h, a2);
    sched.onPhaseTransition(a1);
    sched.onPhaseTransition(a2);

    // Both fresh: capacity 300 fits only one (cost 103 each plus
    // keeping the other 102... 103+102=205 <= 300: actually both stay
    // resident but only... cost 103 + 103 = 206 <= 300: both decode.
    auto plan = sched.plan(h.pool);
    EXPECT_EQ(plan.decode.size(), 2u);

    // a1 consumes a quantum: a2 now outranks it.
    h.decodeTokens(a1, 4, 2.0, 4);
    plan = sched.plan(h.pool);
    ASSERT_GE(plan.decode.size(), 1u);
    EXPECT_EQ(plan.decode[0], a2);
}

TEST(PascalSched, StartInAnsweringGoesToLowQueue)
{
    PascalScheduler sched(limits(500));
    SchedulerHarness h(100000, &sched);
    auto* warm = h.make(0, 0.0, 128, 0, 50, /*start_in_answering=*/true);
    auto* rea = h.make(1, 1.0, 128, 50, 10);
    sched.add(warm);
    sched.add(rea);

    EXPECT_EQ(sched.numReasoning(), 1);
    auto plan = sched.plan(h.pool);
    // The reasoning request prefills; the prewarm allocates without
    // prefill cost but does not decode during a prefill iteration.
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], rea);
    ASSERT_EQ(plan.prewarm.size(), 1u);
    EXPECT_EQ(plan.prewarm[0], warm);
    EXPECT_TRUE(plan.decode.empty());
}

} // namespace
