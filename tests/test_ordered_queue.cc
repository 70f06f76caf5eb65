/**
 * @file
 * Unit tests for core::OrderedQueue: after every repair() the queue
 * iterates exactly as std::sort orders its live members, whatever mix
 * of inserts, erases and key changes led there.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/rng.hh"
#include "src/core/ordered_queue.hh"
#include "src/core/rr_scheduler.hh"

namespace
{

using namespace pascal;
using workload::Request;
using Queue = core::OrderedQueue<core::RrOrder>;

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
    std::sort(live.begin(), live.end(), core::RrOrder{});
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

} // namespace
