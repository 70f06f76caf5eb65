/**
 * @file
 * Unit tests for the answering-SLO monitor, driven directly: the
 * per-step cost pinned in re-key counts, exact keys across a sit-out,
 * and a seeded random event sequence cross-checked against the
 * reference walk after every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "src/cluster/slo_monitor.hh"

namespace
{

using namespace pascal;
using cluster::SloMonitor;
using workload::Request;
using workload::SloClass;

/** Owns requests, a hosted set and a monitor; steps like an engine. */
struct Driver
{
    explicit Driver(bool classes) : mon(slo)
    {
        qoe::SloClassConfig c;
        c.enabled = classes;
        mon.setClassConfig(c);
    }

    Request*
    make(TokenCount reasoning, TokenCount answer,
         SloClass cls = SloClass::Standard)
    {
        workload::RequestSpec s;
        s.id = static_cast<RequestId>(owned.size());
        s.arrival = now;
        s.promptTokens = 16;
        s.reasoningTokens = reasoning;
        s.answerTokens = answer;
        s.sloClass = cls;
        owned.push_back(std::make_unique<Request>(s));
        return owned.back().get();
    }

    /** Admission / landing: the request joins the hosted set. */
    void
    admit(Request* r)
    {
        hosted.push_back(r);
        mon.park(r);
    }

    /** Migration away: the request leaves the hosted set. */
    void
    detach(Request* r)
    {
        mon.remove(r);
        hosted.erase(std::find(hosted.begin(), hosted.end(), r));
    }

    /** One decode step of @p dt: every request in @p batch emits,
     *  and the pacing members it leaves out park, as the engine
     *  reports them. */
    void
    step(const std::vector<Request*>& batch, Time dt = 0.1)
    {
        now += dt;
        for (auto* r : batch) {
            r->emitToken(now, 0);
            mon.onEmit(r);
        }
        for (auto* r : hosted) {
            if (mon.paces(r) &&
                std::find(batch.begin(), batch.end(), r) == batch.end())
                mon.park(r);
        }
        mon.endStep(!batch.empty());
        hosted.erase(std::remove_if(hosted.begin(), hosted.end(),
                                    [](const Request* r) {
                                        return r->finished();
                                    }),
                     hosted.end());
    }

    /** Emit @p n tokens for @p r alone, outside any monitored step
     *  (the request is not hosted yet). */
    void
    advanceUnhosted(Request* r, TokenCount n)
    {
        for (TokenCount i = 0; i < n; ++i)
            r->emitToken(now, 0);
    }

    qoe::SloConfig slo;
    SloMonitor mon;
    std::vector<std::unique_ptr<Request>> owned;
    std::vector<Request*> hosted;
    Time now = 0.0;
};

/** Answering requests that have emitted their first answer token and
 *  pace in @p d's batch; @p parked more that sit out from then on. */
void
buildPacingAndParked(Driver& d, std::size_t pacing, std::size_t parked,
                     std::vector<Request*>& batch,
                     const std::vector<SloClass>& classes)
{
    for (std::size_t i = 0; i < pacing + parked; ++i) {
        Request* r = d.make(1, 100000, classes[i % classes.size()]);
        d.admit(r);
        batch.push_back(r);
    }
    // </think>, then the first answer token: everyone paces.
    d.step(batch);
    d.step(batch);
    batch.resize(pacing);
    // The sit-out step parks the rest at their exact keys.
    d.step(batch);
}

TEST(SloMonitor, SteadyBatchCostsOneRekeyPerPacingHeapPerStep)
{
    for (std::size_t parked : {0u, 10u, 1000u}) {
        Driver d(false);
        std::vector<Request*> batch;
        buildPacingAndParked(d, 32, parked, batch, {SloClass::Standard});
        for (int s = 0; s < 50; ++s) {
            std::uint64_t before = d.mon.numRekeys();
            d.step(batch);
            EXPECT_EQ(d.mon.numRekeys() - before, 1u)
                << "parked=" << parked << " step=" << s;
        }
        d.mon.verify(d.hosted, d.now, 0);
    }
}

TEST(SloMonitor, SteadyBatchWithClassesCostsOneRekeyPerLiveClass)
{
    for (std::size_t parked : {0u, 1000u}) {
        Driver d(true);
        std::vector<Request*> batch;
        buildPacingAndParked(d, 30, parked, batch,
                             {SloClass::Interactive, SloClass::Batch});
        for (int s = 0; s < 50; ++s) {
            std::uint64_t before = d.mon.numRekeys();
            d.step(batch, 0.04);
            EXPECT_EQ(d.mon.numRekeys() - before, 2u)
                << "parked=" << parked << " step=" << s;
        }
        d.mon.verify(d.hosted, d.now, 0);
    }
}

TEST(SloMonitor, SitOutAndRejoinKeepsExactKey)
{
    Driver d(false);
    std::vector<Request*> batch;
    buildPacingAndParked(d, 8, 0, batch, {SloClass::Standard});
    Request* r = batch.back();
    batch.pop_back();

    // Sitting out parks the request at its bit-exact key, which holds
    // still while the rest of the batch advances.
    d.step(batch);
    ASSERT_GE(r->sloHeapPos, 0);
    EXPECT_EQ(r->sloHeapId, 0);
    const double parked_key = r->sloKey;
    EXPECT_EQ(parked_key, d.mon.sloKeyOf(r));
    for (int s = 0; s < 20; ++s) {
        d.step(batch);
        EXPECT_EQ(r->sloHeapId, 0);
        EXPECT_EQ(r->sloKey, parked_key);
        d.mon.verify(d.hosted, d.now, 0);
    }

    // Rejoining costs one key write (plus the step's bump) and lands
    // in the pacing heap; the audit pins the key against sloKeyOf.
    batch.push_back(r);
    std::uint64_t before = d.mon.numRekeys();
    d.step(batch);
    EXPECT_EQ(d.mon.numRekeys() - before, 2u);
    EXPECT_EQ(r->sloHeapId, 1);
    d.mon.verify(d.hosted, d.now, 0);
    for (int s = 0; s < 20; ++s) {
        d.step(batch);
        d.mon.verify(d.hosted, d.now, 0);
    }
}

/** Heap verdict against the reference walk. */
void
expectMatchesScan(const Driver& d, Time at)
{
    ASSERT_EQ(d.mon.answeringSloOk(at),
              d.mon.answeringSloOkScan(d.hosted, at))
        << "t=" << at;
}

void
randomSequence(bool classes, std::uint64_t seed)
{
    Driver d(classes);
    std::mt19937_64 rng(seed);
    auto uniform = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    auto pick = [&](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    const SloClass kClasses[] = {SloClass::Interactive,
                                 SloClass::Standard, SloClass::Batch};
    int verdict_flips = 0;
    bool last_ok = true;
    for (int s = 0; s < 3000; ++s) {
        double op = uniform(0.0, 1.0);
        if (op < 0.06 || d.hosted.size() < 4) {
            // Fresh admission (reasoning), or a landing that arrives
            // past its </think> (answering, TTFAT countdown running).
            Request* r = d.make(1 + static_cast<TokenCount>(pick(6)),
                                1 + static_cast<TokenCount>(pick(40)),
                                kClasses[pick(3)]);
            if (pick(2) == 0)
                d.advanceUnhosted(r, r->spec().reasoningTokens);
            d.admit(r);
        } else if (op < 0.12) {
            d.detach(d.hosted[pick(d.hosted.size())]);
        } else if (op < 0.14 && classes) {
            Request* r = d.hosted[pick(d.hosted.size())];
            r->bestEffort = true;
            d.mon.park(r);
        } else {
            // A decode step over a random subset; the rest sit out.
            // The subset is mostly stable, as in a real batch.
            std::vector<Request*> batch;
            double keep = uniform(0.5, 1.0);
            for (auto* r : d.hosted) {
                if (uniform(0.0, 1.0) < keep)
                    batch.push_back(r);
            }
            d.step(batch, uniform(0.02, 0.16));
        }
        d.mon.verify(d.hosted, d.now, 0);
        expectMatchesScan(d, d.now);
        expectMatchesScan(d, d.now + uniform(0.0, 2.0));
        bool ok = d.mon.answeringSloOk(d.now);
        verdict_flips += ok != last_ok;
        last_ok = ok;
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The sequence must exercise both verdicts, not just one.
    EXPECT_GT(verdict_flips, 10);
}

TEST(SloMonitor, RandomSequenceMatchesReferenceClassesOff)
{
    for (std::uint64_t seed : {1u, 2u, 3u})
        randomSequence(false, seed);
}

TEST(SloMonitor, RandomSequenceMatchesReferenceClassesOn)
{
    for (std::uint64_t seed : {1u, 2u, 3u})
        randomSequence(true, seed);
}

} // namespace
