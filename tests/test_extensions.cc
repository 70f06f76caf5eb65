/**
 * @file
 * Tests for the library's extensions beyond the paper's baseline
 * design: the answering-memory reserve in the PASCAL scheduler and
 * the instance monitor's early-warning buffer margin.
 */

#include <gtest/gtest.h>

#include <memory>

#include "src/cluster/instance.hh"
#include "src/cluster/serving_system.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/core/pascal_scheduler.hh"
#include "src/workload/generator.hh"
#include "tests/scheduler_test_util.hh"

namespace
{

using namespace pascal;
using core::PascalScheduler;
using core::SchedLimits;
using test::SchedulerHarness;

SchedLimits
limitsWithReserve(double reserve)
{
    SchedLimits l;
    l.quantum = 4;
    l.answeringReserveFraction = reserve;
    return l;
}

TEST(AnsweringReserve, ValidatedRange)
{
    EXPECT_THROW(limitsWithReserve(-0.1).validate(), FatalError);
    EXPECT_THROW(limitsWithReserve(1.0).validate(), FatalError);
    limitsWithReserve(0.0).validate();
    limitsWithReserve(0.5).validate();
}

TEST(AnsweringReserve, HighQueueCannotClaimReservedMemory)
{
    // Capacity 1000, 30% reserved for answering: the high queue may
    // charge at most 700.
    PascalScheduler sched(limitsWithReserve(0.3));
    SchedulerHarness h(1000, &sched);

    auto* r1 = h.make(0, 0.0, 499, 100, 10); // Prefill cost 500.
    auto* r2 = h.make(1, 1.0, 299, 100, 10); // Prefill cost 300.
    sched.add(r1);
    sched.add(r2);

    auto plan = sched.plan(h.pool);
    // r1 (500) fits in the 700 cap; r2 (300) would push the high
    // queue to 800 > 700 and is skipped.
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], r1);
}

TEST(AnsweringReserve, AnsweringUsesReservedMemory)
{
    PascalScheduler sched(limitsWithReserve(0.3));
    SchedulerHarness h(1000, &sched);

    auto* rea = h.make(0, 0.0, 499, 100, 10); // High queue, cost 500.
    auto* ans = h.make(1, 1.0, 199, 2, 50);   // Low queue, kv 201.
    sched.add(rea);
    sched.add(ans);
    h.makeResident(ans, 4);
    h.decodeTokens(ans, 1, 0.5, 4); // Enter answering phase.
    ASSERT_EQ(ans->phase(), workload::Phase::Answering);

    auto plan = sched.plan(h.pool);
    // Both scheduled: reasoning inside its 700 cap, answering from
    // the overall budget.
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], rea);
    EXPECT_TRUE(plan.swapOut.empty());
}

TEST(AnsweringReserve, ZeroReserveMatchesPaperBehaviour)
{
    // With reserve 0 the high queue may take everything.
    PascalScheduler sched(limitsWithReserve(0.0));
    SchedulerHarness h(1000, &sched);

    auto* r1 = h.make(0, 0.0, 499, 100, 10);
    auto* r2 = h.make(1, 1.0, 299, 100, 10);
    sched.add(r1);
    sched.add(r2);

    auto plan = sched.plan(h.pool);
    EXPECT_EQ(plan.prefill.size(), 2u);
}

TEST(AnsweringReserve, EndToEndRunStillCompletes)
{
    Rng rng(21);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {120.0, 0.8, 16, 600};
    profile.answering = {100.0, 0.8, 16, 600};
    profile.prompt = {64.0, 0.5, 16, 256};
    auto trace = workload::generateTrace(profile, 60, 30.0, rng);

    cluster::SystemConfig cfg = cluster::SystemConfig::pascal(2);
    cfg.gpuKvCapacityTokens = 4000;
    cfg.limits.answeringReserveFraction = 0.25;
    auto result = cluster::ServingSystem(cfg).run(trace);
    EXPECT_EQ(result.numUnfinished, 0u);
}

TEST(ChunkedPrefill, PlanKeepsDecodeAlongsidePrefill)
{
    auto l = limitsWithReserve(0.0);
    l.quantum = 500;
    l.chunkedPrefill = true;
    PascalScheduler sched(l);
    SchedulerHarness h(100000, &sched);

    auto* resident = h.make(0, 0.0, 128, 100, 10);
    auto* fresh = h.make(1, 1.0, 128, 100, 10);
    sched.add(resident);
    sched.add(fresh);
    h.makeResident(resident, 500);

    auto plan = sched.plan(h.pool);
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], fresh);
    // Unlike prefill-priority mode, the resident request decodes in
    // the same iteration.
    ASSERT_EQ(plan.decode.size(), 1u);
    EXPECT_EQ(plan.decode[0], resident);
}

TEST(ChunkedPrefill, EndToEndRunCompletes)
{
    Rng rng(33);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {120.0, 0.8, 16, 600};
    profile.answering = {100.0, 0.8, 16, 600};
    profile.prompt = {64.0, 0.5, 16, 256};
    auto trace = workload::generateTrace(profile, 60, 30.0, rng);

    cluster::SystemConfig cfg = cluster::SystemConfig::pascal(2);
    cfg.gpuKvCapacityTokens = 6000;
    cfg.limits.chunkedPrefill = true;
    auto result = cluster::ServingSystem(cfg).run(trace);
    EXPECT_EQ(result.numUnfinished, 0u);

    // Same trace under prefill priority: both must conserve tokens.
    cfg.limits.chunkedPrefill = false;
    auto base = cluster::ServingSystem(cfg).run(trace);
    EXPECT_EQ(base.numUnfinished, 0u);
    EXPECT_EQ(result.aggregate.numFinished, base.aggregate.numFinished);
}

struct MonitorFixture
{
    explicit MonitorFixture(TokenCount margin)
        : perf(model::ModelConfig::deepseekR1Distill32B(),
               model::HardwareConfig::h100())
    {
        qoe::SloConfig slo;
        slo.monitorBufferMarginTokens = margin;
        core::SchedLimits limits;
        cluster::InstanceCallbacks cbs;
        cbs.onPhaseTransition = [this](workload::Request* r,
                                       InstanceId) {
            instance->scheduler().onPhaseTransition(r);
        };
        instance = std::make_unique<cluster::Instance>(
            0, sim, perf,
            std::make_unique<core::PascalScheduler>(limits), 100000,
            slo, cbs);
    }

    sim::Simulator sim;
    model::PerfModel perf;
    std::unique_ptr<cluster::Instance> instance;
    std::vector<std::unique_ptr<workload::Request>> owned;
};

TEST(MonitorMargin, FlagsAtRiskRequestsEarlier)
{
    // Two identical instances, margins 0 and 50. A request that has
    // generated 20 answering tokens in 1.5 s (pace expects ~16) is
    // fine with margin 0 but flagged with margin 50.
    for (auto [margin, expect_ok] :
         {std::pair<TokenCount, bool>{0, true},
          std::pair<TokenCount, bool>{50, false}}) {
        MonitorFixture f(margin);
        workload::RequestSpec s;
        s.id = 1;
        s.arrival = 0.0;
        s.promptTokens = 64;
        s.reasoningTokens = 0;
        s.answerTokens = 200;
        s.startInAnswering = true;
        auto req = std::make_unique<workload::Request>(s);
        for (int i = 0; i < 20; ++i)
            req->emitToken(0.1 + 0.05 * i, 500);
        // Host it through the instance so the monitor's min-deadline
        // SLO heap tracks it (scheduler().add alone would bypass the
        // admission path the heap hooks).
        f.instance->addRequest(req.get());

        EXPECT_EQ(f.instance->answeringSloOk(1.5), expect_ok)
            << "margin=" << margin;
        f.instance->detach(req.get());
    }
}

} // namespace
