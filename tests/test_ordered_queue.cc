/**
 * @file
 * Unit tests for core::OrderedQueue: after every repair() the queue
 * iterates exactly as std::sort orders its live members, whatever mix
 * of inserts, erases, key changes (re-read at repair or set before
 * it), whole-queue invalidations and twin-style rebuilds led there.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/rng.hh"
#include "src/core/ordered_queue.hh"

namespace
{

using namespace pascal;
using workload::Request;
using Queue = core::OrderedQueue;

constexpr std::uint8_t kTag = 3;

/** @p n requests with few distinct arrivals, so ties fall through to
 *  the id level of the order. */
std::vector<std::unique_ptr<Request>>
makeRequests(int n, Rng& rng)
{
    std::vector<std::unique_ptr<Request>> reqs;
    for (int i = 0; i < n; ++i) {
        workload::RequestSpec s;
        s.id = i;
        s.arrival = static_cast<double>(rng.uniformInt(0, n / 8));
        s.promptTokens = 16;
        s.reasoningTokens = 8;
        s.answerTokens = 8;
        s.dataset = "unit";
        reqs.push_back(std::make_unique<Request>(s));
        reqs.back()->quantaConsumed =
            static_cast<int>(rng.uniformInt(0, 3));
    }
    return reqs;
}

/** The queue's order must equal std::sort of @p live. */
void
expectSortedLike(const Queue& q, std::vector<Request*> live)
{
    std::sort(live.begin(), live.end(), core::QueueOrder{});
    std::vector<Request*> walked(q.begin(), q.end());
    ASSERT_EQ(walked, live);
    for (const Request* r : walked) {
        EXPECT_EQ(r->schedQueueTag, kTag);
        EXPECT_FALSE(r->schedDirtyPending);
    }
}

TEST(OrderedQueue, RandomOpsMatchStdSort)
{
    Rng rng(20260417);
    auto reqs = makeRequests(96, rng);
    Queue q(kTag);
    std::vector<Request*> live;
    std::vector<Request*> dirty; // Live members awaiting repair().
    auto in = [](const std::vector<Request*>& v, const Request* r) {
        return std::find(v.begin(), v.end(), r) != v.end();
    };
    auto drop = [](std::vector<Request*>& v, const Request* r) {
        v.erase(std::find(v.begin(), v.end(), r));
    };
    int repairs = 0;
    int pending_erases = 0;
    int double_marks = 0;
    for (int step = 0; step < 50000; ++step) {
        Request* r = reqs[rng.pickIndex(reqs.size())].get();
        switch (rng.uniformInt(0, 5)) {
          case 0: // insert
            if (in(live, r))
                break;
            q.insert(r);
            live.push_back(r);
            dirty.push_back(r);
            break;
          case 1: // erase
            if (!in(live, r))
                break;
            if (in(dirty, r)) {
                ++pending_erases;
                drop(dirty, r);
            }
            q.erase(r);
            drop(live, r);
            EXPECT_EQ(r->schedQueueTag, 0);
            EXPECT_FALSE(r->schedDirtyPending);
            break;
          case 2:
          case 3: // markDirty, then move the key (twice marks are no-ops)
            if (!in(live, r))
                break;
            if (in(dirty, r))
                ++double_marks;
            else
                dirty.push_back(r);
            q.markDirty(r);
            r->quantaConsumed = static_cast<int>(rng.uniformInt(0, 3));
            break;
          case 4: // move a pending member's key again before repair
            if (dirty.empty())
                break;
            dirty[rng.pickIndex(dirty.size())]->quantaConsumed =
                static_cast<int>(rng.uniformInt(0, 3));
            break;
          default:
            q.repair();
            dirty.clear();
            ++repairs;
            expectSortedLike(q, live);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
    q.repair();
    expectSortedLike(q, live);
    // The sequence really exercised the paths under test.
    EXPECT_GT(repairs, 1000);
    EXPECT_GT(pending_erases, 50);
    EXPECT_GT(double_marks, 50);
}

TEST(OrderedQueue, PendingEraseAndDoubleMarkScripted)
{
    Rng rng(7);
    auto reqs = makeRequests(4, rng);
    for (auto& r : reqs)
        r->quantaConsumed = 0;
    Request* a = reqs[0].get();
    Request* b = reqs[1].get();
    Request* c = reqs[2].get();
    Request* d = reqs[3].get();
    Queue q(kTag);
    q.repair(); // No-op on an empty queue.
    EXPECT_TRUE(q.begin() == q.end());
    for (Request* r : {a, b, c, d})
        q.insert(r);
    q.repair();
    expectSortedLike(q, {a, b, c, d});

    // Mark b dirty twice with a key move in between: one re-insert.
    q.markDirty(b);
    b->quantaConsumed = 2;
    q.markDirty(b);
    b->quantaConsumed = 1;
    // Erase a pending member: c is marked dirty, then leaves.
    q.markDirty(c);
    c->quantaConsumed = 5;
    q.erase(c);
    // A fresh insert that is erased before it is ever repaired.
    q.erase(d);
    q.insert(d);
    q.erase(d);
    q.repair();
    expectSortedLike(q, {a, b});
    EXPECT_EQ(*q.begin(), a);
    EXPECT_EQ(c->schedQueueTag, 0);
    EXPECT_EQ(d->schedQueueTag, 0);
}

TEST(OrderedQueue, RekeyedTwoQueueRoundsMatchStdSort)
{
    // Two queues over 200 requests. Each round moves some
    // members between the queues or out of both, re-keys some (ten
    // score values, so ties fall through to arrival and id; the new
    // score is read by the repair's re-key functor), bumps quanta or
    // class ranks, and marks some dirty with their key unchanged or
    // nudged, which mostly keeps them in place. Every seventh round
    // marks every member dirty with fresh scores (a predictor version
    // bump), and every eleventh rebuilds both queues from scratch like
    // the force-resort twin. After each repair both queues must equal
    // std::sort of their members.
    Rng rng(2024);
    std::vector<std::unique_ptr<Request>> reqs;
    std::vector<std::int64_t> queue_of; // -1: in neither queue.
    std::vector<double> next_score;     // Read by the re-key functor.
    for (int i = 0; i < 200; ++i) {
        workload::RequestSpec s;
        s.id = i;
        s.arrival = static_cast<double>(i % 37);
        s.promptTokens = 10;
        s.reasoningTokens = 10;
        s.answerTokens = 10;
        reqs.push_back(std::make_unique<Request>(s));
        queue_of.push_back(-1);
        next_score.push_back(0.0);
    }
    Queue queues[2] = {Queue(1), Queue(2)};
    auto rekey = [&](Request* r) {
        r->schedScore = next_score[static_cast<std::size_t>(r->id())];
    };
    auto members = [&](std::int64_t q) {
        std::vector<Request*> v;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (queue_of[i] == q)
                v.push_back(reqs[i].get());
        }
        return v;
    };

    for (std::size_t round = 0; round < 600; ++round) {
        const bool all_dirty = round % 7 == 6;
        const bool rebuild = round % 11 == 10;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            Request* r = reqs[i].get();
            std::int64_t& q = queue_of[i];
            double u = rng.uniformReal(0.0, 1.0);
            auto v = rng.uniformInt(0, 9);
            if (q < 0 || u < 0.05) {
                if (q >= 0 && rng.uniformReal(0.0, 1.0) < 0.5)
                    continue; // Stays put this round.
                std::int64_t to = v % 3 - 1;
                if (to == q)
                    continue;
                if (q >= 0)
                    queues[q].erase(r);
                q = to;
                if (q >= 0) {
                    next_score[i] = static_cast<double>(v);
                    queues[q].insert(r);
                }
                continue;
            }
            Queue& queue = queues[q];
            if (all_dirty) {
                queue.markDirty(r);
                if (u < 0.5)
                    next_score[i] = static_cast<double>(v);
            } else if (u < 0.15) {
                queue.markDirty(r);
                next_score[i] = static_cast<double>(v);
            } else if (u < 0.18) {
                queue.markDirty(r);
                ++r->quantaConsumed;
            } else if (u < 0.19) {
                queue.markDirty(r);
                r->schedClassRank = static_cast<std::uint8_t>(v % 3);
            } else if (u < 0.25) {
                // Keep-in-place candidates: unchanged or a nudge.
                queue.markDirty(r);
                if (u < 0.22)
                    next_score[i] += 1e-9;
            }
        }
        for (std::int64_t q = 0; q < 2; ++q) {
            if (rebuild) {
                queues[q].clear();
                for (Request* r : members(q))
                    queues[q].insert(r);
            }
            queues[q].repair(rekey);
            auto cold = members(q);
            std::sort(cold.begin(), cold.end(), core::QueueOrder{});
            std::vector<Request*> walked(queues[q].begin(),
                                         queues[q].end());
            ASSERT_EQ(walked, cold) << "round " << round << " queue " << q;
            for (const Request* r : walked) {
                EXPECT_EQ(r->schedQueueTag, q + 1);
                EXPECT_FALSE(r->schedDirtyPending);
            }
        }
    }
}

} // namespace
