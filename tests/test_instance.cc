/**
 * @file
 * Integration tests for one serving instance: end-to-end request
 * execution, token conservation, phase timestamps, swap traffic, and
 * the t_i monitor condition.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cluster/instance.hh"
#include "src/core/fcfs_scheduler.hh"
#include "src/core/pascal_scheduler.hh"
#include "src/core/rr_scheduler.hh"
#include "src/model/perf_model.hh"
#include "src/obs/stat_registry.hh"
#include "src/sim/simulator.hh"

namespace
{

using namespace pascal;
using cluster::Instance;
using cluster::InstanceCallbacks;

struct InstanceFixture
{
    InstanceFixture(std::unique_ptr<core::IntraScheduler> sched,
                    TokenCount capacity)
        : perf(model::ModelConfig::deepseekR1Distill32B(),
               model::HardwareConfig::h100())
    {
        InstanceCallbacks cbs;
        cbs.onPhaseTransition = [this](workload::Request* r,
                                       InstanceId) {
            ++transitions;
            // Stay on the instance (single-node test).
            instance->scheduler().onPhaseTransition(r);
        };
        cbs.onFinished = [this](workload::Request*, InstanceId) {
            ++finished;
        };
        instance = std::make_unique<Instance>(
            0, sim, perf, std::move(sched), capacity, qoe::SloConfig{},
            cbs);
        instance->registerStats(stats, "instance.0");
    }

    /** Engine counter "instance.0.engine.<name>" from the registry. */
    std::uint64_t
    engineStat(const std::string& name) const
    {
        const obs::StatDump dump = stats.dump();
        const obs::StatValue* s =
            obs::findStat(dump, "instance.0.engine." + name);
        EXPECT_NE(s, nullptr) << name;
        return s == nullptr ? 0 : static_cast<std::uint64_t>(s->value);
    }

    workload::Request*
    submit(RequestId id, Time arrival, TokenCount prompt,
           TokenCount reasoning, TokenCount answer,
           bool prewarm = false)
    {
        workload::RequestSpec s;
        s.id = id;
        s.arrival = arrival;
        s.promptTokens = prompt;
        s.reasoningTokens = reasoning;
        s.answerTokens = answer;
        s.startInAnswering = prewarm;
        owned.push_back(std::make_unique<workload::Request>(s));
        auto* r = owned.back().get();
        sim.at(arrival, [this, r] { instance->addRequest(r); });
        return r;
    }

    sim::Simulator sim;
    model::PerfModel perf;
    std::unique_ptr<Instance> instance;
    obs::StatRegistry stats;
    std::vector<std::unique_ptr<workload::Request>> owned;
    int transitions = 0;
    int finished = 0;
};

core::SchedLimits
defaultLimits()
{
    core::SchedLimits l;
    l.quantum = 500;
    return l;
}

TEST(Instance, SingleRequestRunsToCompletion)
{
    InstanceFixture f(
        std::make_unique<core::FcfsScheduler>(defaultLimits()), 100000);
    auto* r = f.submit(0, 0.0, 128, 10, 5);
    f.sim.run();

    EXPECT_TRUE(r->finished());
    EXPECT_EQ(f.finished, 1);
    EXPECT_EQ(f.transitions, 1);
    EXPECT_EQ(r->generated(), 15);

    // Timestamp ordering: prefill < reasoningEnd < firstAnswer <
    // finish.
    EXPECT_GT(r->prefillEnd, 0.0);
    EXPECT_GT(r->reasoningEnd, r->prefillEnd);
    EXPECT_GT(r->firstAnswer, r->reasoningEnd);
    EXPECT_GT(r->finish, r->firstAnswer);

    // KV was released at completion.
    EXPECT_EQ(f.instance->pool().gpuUsed(), 0);
    EXPECT_EQ(f.instance->pool().numTracked(), 0u);
}

TEST(Instance, TokensConservedAcrossBatchedRequests)
{
    InstanceFixture f(
        std::make_unique<core::RrScheduler>(defaultLimits()), 100000);
    TokenCount expected = 0;
    for (int i = 0; i < 10; ++i) {
        f.submit(i, 0.05 * i, 64, 20 + i, 10 + i);
        expected += 20 + i + 10 + i;
    }
    f.sim.run();
    EXPECT_EQ(f.finished, 10);
    EXPECT_EQ(f.engineStat("decode_tokens") + f.engineStat("prefills"),
              static_cast<std::uint64_t>(expected));
    EXPECT_EQ(f.instance->pool().gpuUsed(), 0);
}

TEST(Instance, ExecutedTimeMatchesOracleWhenUncontended)
{
    InstanceFixture f(
        std::make_unique<core::FcfsScheduler>(defaultLimits()), 100000);
    auto* r = f.submit(0, 0.0, 128, 50, 1);
    f.sim.run();

    // Alone on the instance: never blocked or preempted after the
    // initial admission.
    EXPECT_NEAR(r->reasoningBuckets.blocked, 0.0, 1e-9);
    EXPECT_NEAR(r->reasoningBuckets.preempted, 0.0, 1e-9);
    EXPECT_GT(r->reasoningBuckets.executed, 0.0);
    EXPECT_NEAR(r->reasoningBuckets.total(),
                r->reasoningEnd - r->spec().arrival, 1e-6);
}

TEST(Instance, MemoryPressureTriggersSwaps)
{
    // Capacity fits roughly one request; RR must swap to interleave.
    InstanceFixture f(
        std::make_unique<core::RrScheduler>(defaultLimits()), 800);
    f.submit(0, 0.0, 256, 300, 10);
    f.submit(1, 0.01, 256, 300, 10);
    f.sim.run();

    EXPECT_EQ(f.finished, 2);
    EXPECT_GT(f.engineStat("swap_outs"), 0u);
    EXPECT_GT(f.engineStat("swap_ins"), 0u);
    // The swap traffic occupied the PCIe link.
    EXPECT_GT(f.instance->pcieLink().busyUntil(), 0.0);
}

TEST(Instance, FcfsBlocksSecondRequestUnderPressure)
{
    InstanceFixture f(
        std::make_unique<core::FcfsScheduler>(defaultLimits()), 800);
    auto* a = f.submit(0, 0.0, 512, 200, 10);
    auto* b = f.submit(1, 0.01, 512, 200, 10);
    f.sim.run();

    EXPECT_EQ(f.finished, 2);
    // B waited for A: blocked time dominates its reasoning phase.
    EXPECT_GT(b->reasoningBuckets.blocked, 1.0);
    EXPECT_GT(b->firstScheduled, a->finish - 1.0);
}

TEST(Instance, PrewarmRequestSkipsPrefillCost)
{
    InstanceFixture f(
        std::make_unique<core::PascalScheduler>(defaultLimits()),
        100000);
    auto* r = f.submit(0, 0.0, 128, 0, 10, /*prewarm=*/true);
    f.sim.run();

    EXPECT_TRUE(r->finished());
    EXPECT_LT(r->prefillEnd, 0.0); // No prefill pass ever ran.
    EXPECT_TRUE(r->prefillDone);
    // First answer token arrives within a couple of decode steps.
    EXPECT_LT(r->firstAnswer, 0.2);
}

TEST(Instance, AnsweringSloOkReflectsPace)
{
    InstanceFixture f(
        std::make_unique<core::PascalScheduler>(defaultLimits()),
        100000);
    auto* r = f.submit(0, 0.0, 128, 5, 200);
    // Run a little past the transition.
    f.sim.run(2.0);
    ASSERT_EQ(r->phase(), workload::Phase::Answering);

    // Decode steps (~30 ms) beat the 100 ms pace: SLO satisfied.
    EXPECT_TRUE(f.instance->answeringSloOk(f.sim.now()));

    // If time jumped far ahead with no generation, the pace would be
    // violated.
    EXPECT_FALSE(f.instance->answeringSloOk(f.sim.now() + 100.0));
}

TEST(Instance, SnapshotCountsPhases)
{
    InstanceFixture f(
        std::make_unique<core::PascalScheduler>(defaultLimits()),
        100000);
    f.submit(0, 0.0, 128, 2000, 10);
    f.submit(1, 0.0, 128, 2000, 10);
    f.sim.run(1.0);

    auto snap = f.instance->snapshot(f.sim.now());
    EXPECT_EQ(snap.id, 0);
    EXPECT_EQ(snap.numReasoning, 2);
    EXPECT_EQ(snap.numFreshAnswering, 0);
    EXPECT_GT(snap.kvFootprintTokens, 0);
    EXPECT_EQ(snap.gpuCapacityTokens, 100000);
    EXPECT_EQ(snap.gpuFreeTokens + snap.kvFootprintTokens, 100000);
}

TEST(Instance, DetachReleasesKvAndRemoves)
{
    InstanceFixture f(
        std::make_unique<core::PascalScheduler>(defaultLimits()),
        100000);
    auto* r = f.submit(0, 0.0, 128, 5000, 10);
    f.sim.run(1.0);
    ASSERT_GT(f.instance->pool().gpuUsed(), 0);

    f.instance->detach(r);
    EXPECT_EQ(r->exec, workload::ExecState::InTransit);
    EXPECT_EQ(f.instance->pool().gpuUsed(), 0);
    EXPECT_TRUE(f.instance->scheduler().hosted().empty());
}

TEST(Instance, IterationCountAdvances)
{
    InstanceFixture f(
        std::make_unique<core::FcfsScheduler>(defaultLimits()), 100000);
    f.submit(0, 0.0, 128, 20, 5);
    f.sim.run();
    // One prefill + 24 decode steps (r2..r20 + 5 answers).
    EXPECT_GE(f.engineStat("iterations"), 25u);
}

} // namespace
