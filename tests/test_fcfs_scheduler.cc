/**
 * @file
 * Unit tests for the FCFS scheduler: arrival-order admission,
 * head-of-line blocking, resume-before-admit, and preempt-latest
 * eviction (Section II-C semantics).
 */

#include <gtest/gtest.h>

#include "src/core/fcfs_scheduler.hh"
#include "tests/scheduler_test_util.hh"

namespace
{

using namespace pascal;
using core::FcfsScheduler;
using core::SchedLimits;
using test::SchedulerHarness;

SchedLimits
limits()
{
    SchedLimits l;
    l.maxBatchSize = 64;
    l.maxPrefillTokens = 4096;
    l.maxPrefillSeqs = 8;
    return l;
}

TEST(Fcfs, AdmitsNewRequestsInArrivalOrderAsPrefill)
{
    FcfsScheduler sched(limits());
    SchedulerHarness h(10000, &sched);
    auto* a = h.make(0, 0.0, 128, 100, 10);
    auto* b = h.make(1, 1.0, 128, 100, 10);
    sched.add(a);
    sched.add(b);

    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.prefill.size(), 2u);
    EXPECT_EQ(plan.prefill[0], a);
    EXPECT_EQ(plan.prefill[1], b);
    EXPECT_TRUE(plan.decode.empty()); // Prefill iterations don't decode.
}

TEST(Fcfs, DecodesResidentsWhenNoPrefillPending)
{
    FcfsScheduler sched(limits());
    SchedulerHarness h(10000, &sched);
    auto* a = h.make(0, 0.0, 128, 100, 10);
    sched.add(a);
    h.makeResident(a);

    auto plan = sched.plan(h.pool);
    EXPECT_TRUE(plan.prefill.empty());
    ASSERT_EQ(plan.decode.size(), 1u);
    EXPECT_EQ(plan.decode[0], a);
}

TEST(Fcfs, BlocksNewRequestBehindFirstUnfit)
{
    // Capacity fits A resident but not B's prompt; C (smaller) must
    // still wait behind B: head-of-line blocking.
    FcfsScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    auto* a = h.make(0, 0.0, 500, 100, 10);
    auto* b = h.make(1, 1.0, 600, 100, 10);
    auto* c = h.make(2, 2.0, 64, 100, 10);
    sched.add(a);
    sched.add(b);
    sched.add(c);
    h.makeResident(a);

    auto plan = sched.plan(h.pool);
    EXPECT_TRUE(plan.prefill.empty()); // B does not fit, C blocked.
    ASSERT_EQ(plan.decode.size(), 1u);
    EXPECT_EQ(plan.decode[0], a);
}

TEST(Fcfs, AdmitsWhenMemoryFrees)
{
    FcfsScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    auto* b = h.make(1, 1.0, 600, 100, 10);
    sched.add(b);

    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], b);
}

TEST(Fcfs, ResumesSwappedBeforeAdmittingNew)
{
    FcfsScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    auto* a = h.make(0, 0.0, 400, 100, 10);
    auto* b = h.make(1, 1.0, 400, 100, 10);
    sched.add(a);
    sched.add(b);
    h.makeResident(a);
    h.swapOut(a);

    auto plan = sched.plan(h.pool);
    // A (older, swapped) resumes and decodes; B's prefill would no
    // longer fit beside it (401 + 401 > 1000 leaves room actually:
    // 401+1 + 400+1 = 803 <= 1000, so B also prefills).
    EXPECT_TRUE(test::SchedulerHarness::contains(plan.swapIn, a));
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], b);
    EXPECT_TRUE(plan.decode.empty());
}

TEST(Fcfs, BlockedResumeBlocksAdmissions)
{
    FcfsScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    auto* a = h.make(0, 0.0, 599, 300, 10); // Resident, kv = 600.
    auto* b = h.make(1, 1.0, 499, 100, 10); // Swapped, kv = 500.
    auto* c = h.make(2, 2.0, 64, 100, 10);  // Waiting, small.
    sched.add(a);
    sched.add(b);
    sched.add(c);
    // B becomes resident first, is swapped out, then A takes the GPU
    // (the pool never exceeds capacity along the way).
    h.makeResident(b);
    h.swapOut(b);
    h.makeResident(a);

    // B needs 501 > 1000-601 = 399: resume blocked, so C stays
    // blocked too even though its prompt would fit (FCFS order).
    auto plan = sched.plan(h.pool);
    EXPECT_TRUE(plan.swapIn.empty());
    EXPECT_TRUE(plan.prefill.empty());
    ASSERT_EQ(plan.decode.size(), 1u);
    EXPECT_EQ(plan.decode[0], a);
}

TEST(Fcfs, EvictsLatestArrivalUnderGrowthPressure)
{
    // Pool exactly full with two residents; the +1 growth margin for
    // both cannot fit, so the later arrival is paused/evicted.
    FcfsScheduler sched(limits());
    SchedulerHarness h(262, &sched); // a: 130+1, b: 130+1 => 262 exact.
    auto* a = h.make(0, 0.0, 129, 100, 10);
    auto* b = h.make(1, 1.0, 129, 100, 10);
    sched.add(a);
    sched.add(b);
    h.makeResident(a); // kv = 130.
    h.makeResident(b); // kv = 130. Pool used = 260, free = 2.

    auto plan = sched.plan(h.pool);
    // Both fit: 131 + 131 = 262 <= 262.
    EXPECT_EQ(plan.decode.size(), 2u);

    // Grow A by one token: B (cost 131 > leftover 130) pauses but can
    // stay resident (keep budget 130 >= kv 130).
    h.decodeTokens(a, 1, 0.5);
    plan = sched.plan(h.pool);
    ASSERT_EQ(plan.decode.size(), 1u);
    EXPECT_EQ(plan.decode[0], a);
    EXPECT_TRUE(plan.swapOut.empty());

    // One more token of growth: keeping B no longer fits, so the most
    // recently arrived request is evicted (paper FCFS preemption).
    h.decodeTokens(a, 1, 0.6);
    plan = sched.plan(h.pool);
    ASSERT_EQ(plan.decode.size(), 1u);
    EXPECT_EQ(plan.decode[0], a);
    ASSERT_EQ(plan.swapOut.size(), 1u);
    EXPECT_EQ(plan.swapOut[0], b);
}

TEST(Fcfs, IdleWhenNothingSchedulable)
{
    FcfsScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    EXPECT_TRUE(sched.plan(h.pool).idle());
}

TEST(Fcfs, FinishedRequestsIgnored)
{
    FcfsScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    auto* a = h.make(0, 0.0, 64, 1, 1);
    sched.add(a);
    h.makeResident(a);
    h.decodeTokens(a, 1, 0.5); // Emits the single answer token: done.
    ASSERT_TRUE(a->finished());
    EXPECT_TRUE(sched.plan(h.pool).idle());
}

TEST(Fcfs, PrefillBatchRespectsTokenCap)
{
    auto l = limits();
    l.maxPrefillTokens = 1000;
    FcfsScheduler sched(l);
    SchedulerHarness h(100000, &sched);
    auto* a = h.make(0, 0.0, 600, 100, 10);
    auto* b = h.make(1, 1.0, 600, 100, 10);
    sched.add(a);
    sched.add(b);

    auto plan = sched.plan(h.pool);
    // Only A fits in this prefill iteration's token budget; FCFS
    // stops there.
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], a);
}

TEST(Fcfs, QuantumNeverAdvances)
{
    FcfsScheduler sched(limits());
    SchedulerHarness h(10000, &sched);
    EXPECT_EQ(sched.schedLimits().quantum, 0);
}

} // namespace
