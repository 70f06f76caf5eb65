/**
 * @file
 * Unit tests for the shared IntraScheduler mechanics: hosted-list
 * management, the greedy selection walk's caps and keep-walk, and the
 * monitor counters the cluster view consumes.
 */

#include <gtest/gtest.h>

#include "src/common/log.hh"
#include "src/core/intra_scheduler.hh"
#include "tests/scheduler_test_util.hh"

namespace
{

using namespace pascal;
using core::IntraScheduler;
using core::IterationPlan;
using core::SchedLimits;
using test::SchedulerHarness;

/** Minimal concrete scheduler walking its hosted list in insertion
 *  order through greedySelectRanges: the first highPrefix requests
 *  form the capped high range (0 disables the cap). */
class ProbeScheduler : public IntraScheduler
{
  public:
    explicit ProbeScheduler(SchedLimits limits)
        : IntraScheduler(limits)
    {}

    std::string name() const override { return "probe"; }

    void
    planInto(const model::KvPool& pool, IterationPlan& out) override
    {
        auto split =
            requests.cbegin() + static_cast<std::ptrdiff_t>(highPrefix);
        greedySelectRanges(requests.cbegin(), split, split,
                           requests.cend(), highPrefix > 0, highCap, pool,
                           stopAtUnfit, out);
    }

    void rebuildQueues() override {}

    bool stopAtUnfit = false;
    std::size_t highPrefix = 0;
    TokenCount highCap = 0;
};

SchedLimits
limits()
{
    SchedLimits l;
    l.quantum = 500;
    return l;
}

TEST(IntraCommon, AddRemoveHosted)
{
    ProbeScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    auto* a = h.make(0, 0.0, 64, 10, 10);
    auto* b = h.make(1, 1.0, 64, 10, 10);
    sched.add(a);
    sched.add(b);
    EXPECT_EQ(sched.hosted().size(), 2u);
    sched.remove(a);
    ASSERT_EQ(sched.hosted().size(), 1u);
    EXPECT_EQ(sched.hosted()[0], b);
}

TEST(IntraCommonDeath, RemovingUnknownPanics)
{
    ProbeScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    auto* a = h.make(0, 0.0, 64, 10, 10);
    EXPECT_DEATH(sched.remove(a), "not hosted");
}

TEST(IntraCommonDeath, AddingNullPanics)
{
    ProbeScheduler sched(limits());
    EXPECT_DEATH(sched.add(nullptr), "nullptr");
}

TEST(IntraCommon, InTransitAndDoneAreUnschedulable)
{
    ProbeScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    auto* a = h.make(0, 0.0, 64, 10, 10);
    auto* b = h.make(1, 1.0, 64, 10, 10);
    sched.add(a);
    sched.add(b);
    a->exec = workload::ExecState::InTransit;
    b->exec = workload::ExecState::Done;

    EXPECT_TRUE(sched.plan(h.pool).idle());
}

TEST(IntraCommon, MaxBatchSizeCapsSelection)
{
    auto l = limits();
    l.maxBatchSize = 3;
    ProbeScheduler sched(l);
    SchedulerHarness h(100000, &sched);
    for (int i = 0; i < 6; ++i) {
        auto* r = h.make(i, 0.1 * i, 64, 10, 10);
        sched.add(r);
        h.makeResident(r);
    }
    auto plan = sched.plan(h.pool);
    EXPECT_EQ(plan.decode.size(), 3u);
    EXPECT_TRUE(plan.swapOut.empty()); // Memory plentiful: keep all.
}

TEST(IntraCommon, PrefillSeqCapLimitsBatch)
{
    auto l = limits();
    l.maxPrefillSeqs = 2;
    ProbeScheduler sched(l);
    SchedulerHarness h(100000, &sched);
    for (int i = 0; i < 5; ++i)
        sched.add(h.make(i, 0.1 * i, 64, 10, 10));
    auto plan = sched.plan(h.pool);
    EXPECT_EQ(plan.prefill.size(), 2u);
}

TEST(IntraCommon, PrewarmsAreExemptFromPrefillCaps)
{
    auto l = limits();
    l.maxPrefillSeqs = 1;
    ProbeScheduler sched(l);
    SchedulerHarness h(100000, &sched);
    sched.add(h.make(0, 0.0, 64, 10, 10));
    for (int i = 1; i < 4; ++i)
        sched.add(h.make(i, 0.1 * i, 64, 0, 10, /*prewarm=*/true));

    auto plan = sched.plan(h.pool);
    EXPECT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prewarm.size(), 3u);
}

TEST(IntraCommon, StopAtUnfitFreezesWalk)
{
    ProbeScheduler sched(limits());
    SchedulerHarness h(200, &sched);
    sched.stopAtUnfit = true;
    sched.add(h.make(0, 0.0, 300, 10, 10)); // Cannot fit (301 > 200).
    sched.add(h.make(1, 1.0, 32, 10, 10));  // Would fit.
    auto plan = sched.plan(h.pool);
    EXPECT_TRUE(plan.idle());
}

TEST(IntraCommon, SkipSemanticsAdmitLaterFits)
{
    ProbeScheduler sched(limits());
    SchedulerHarness h(200, &sched);
    sched.stopAtUnfit = false;
    sched.add(h.make(0, 0.0, 300, 10, 10));
    auto* fits = h.make(1, 1.0, 32, 10, 10);
    sched.add(fits);
    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], fits);
}

TEST(IntraCommon, HighPrefixCapLimitsEarlyEntries)
{
    ProbeScheduler sched(limits());
    SchedulerHarness h(1000, &sched);
    sched.highPrefix = 1;
    sched.highCap = 100;
    sched.add(h.make(0, 0.0, 150, 10, 10)); // Cost 151 > cap 100.
    auto* later = h.make(1, 1.0, 150, 10, 10); // Unrestricted.
    sched.add(later);
    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], later);
}

TEST(IntraCommon, KeepWalkPreservesHighestPriorityResidents)
{
    // Three residents; only the first two fit alongside growth, the
    // last (lowest priority = latest in order) is evicted.
    ProbeScheduler sched(limits());
    SchedulerHarness h(330, &sched);
    std::vector<workload::Request*> rs;
    for (int i = 0; i < 3; ++i) {
        auto* r = h.make(i, 0.1 * i, 99, 10, 10); // kv 100 each.
        sched.add(r);
        h.makeResident(r);
        rs.push_back(r);
    }
    // Costs: 101 each; 3 * 101 = 303 <= 330: all decode.
    auto plan = sched.plan(h.pool);
    EXPECT_EQ(plan.decode.size(), 3u);

    // Tighten: grow first two so the third no longer fits.
    h.decodeTokens(rs[0], 15, 0.5);
    h.decodeTokens(rs[1], 15, 0.5);
    plan = sched.plan(h.pool);
    EXPECT_EQ(plan.decode.size(), 2u);
    ASSERT_EQ(plan.swapOut.size(), 1u);
    EXPECT_EQ(plan.swapOut[0], rs[2]);
}

TEST(IntraCommon, MonitorCountersTrackPhases)
{
    ProbeScheduler sched(limits());
    SchedulerHarness h(100000, &sched);
    auto* rea = h.make(0, 0.0, 64, 100, 10);
    auto* ans = h.make(1, 1.0, 64, 2, 600);
    sched.add(rea);
    sched.add(ans);
    h.makeResident(ans, 500);
    h.decodeTokens(ans, 1, 0.5, 500); // Transition to answering.

    EXPECT_EQ(sched.numReasoning(), 1);
    EXPECT_EQ(sched.numFreshAnswering(), 1);

    // A full quantum of answering tokens: no longer "fresh".
    h.decodeTokens(ans, 500, 1.0, 500);
    EXPECT_EQ(sched.numFreshAnswering(), 0);
}

} // namespace
