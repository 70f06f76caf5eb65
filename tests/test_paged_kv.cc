/**
 * @file
 * Unit tests for the paged (block-granular) KV allocator mode:
 * charge rounding, growth across block boundaries, and scheduler
 * consistency with charged budgets.
 */

#include <gtest/gtest.h>

#include "src/common/log.hh"
#include "src/core/rr_scheduler.hh"
#include "src/model/kv_pool.hh"
#include "tests/scheduler_test_util.hh"

namespace
{

using namespace pascal;
using model::KvPool;
using model::KvSlot;
using model::KvTier;

TEST(PagedKv, ChargeRoundsUpToBlocks)
{
    KvPool pool(1000, 16);
    EXPECT_EQ(pool.chargeFor(0), 0);
    EXPECT_EQ(pool.chargeFor(1), 16);
    EXPECT_EQ(pool.chargeFor(16), 16);
    EXPECT_EQ(pool.chargeFor(17), 32);
    EXPECT_EQ(pool.blockSize(), 16);
}

TEST(PagedKv, BlockSizeOneIsExact)
{
    KvPool pool(1000, 1);
    EXPECT_EQ(pool.chargeFor(7), 7);
}

TEST(PagedKv, AllocationChargesWholeBlocks)
{
    KvPool pool(64, 16);
    KvSlot s = pool.allocGpu(1, 1); // 1 logical token -> 16 charged.
    EXPECT_EQ(pool.tokensOf(s), 1);
    EXPECT_EQ(pool.chargedTokensOf(s), 16);
    EXPECT_EQ(pool.gpuUsed(), 16);
    EXPECT_EQ(pool.gpuFree(), 48);
}

TEST(PagedKv, GrowthWithinBlockIsFree)
{
    KvPool pool(64, 16);
    KvSlot s = pool.allocGpu(1, 1);
    for (int i = 0; i < 15; ++i)
        pool.growGpu(s, 1); // Fills the first block.
    EXPECT_EQ(pool.gpuUsed(), 16);

    pool.growGpu(s, 1); // Crosses into a second block.
    EXPECT_EQ(pool.gpuUsed(), 32);
    EXPECT_EQ(pool.tokensOf(s), 17);
}

TEST(PagedKv, CanAllocAccountsForRounding)
{
    KvPool pool(32, 16);
    pool.allocGpu(1, 17); // Charged 32: pool full.
    EXPECT_EQ(pool.gpuFree(), 0);
    EXPECT_FALSE(pool.canAllocGpu(1));
}

TEST(PagedKv, SwapMovesChargedAmount)
{
    KvPool pool(64, 16);
    KvSlot s = pool.allocGpu(1, 20); // Charged 32.
    pool.moveToCpu(s);
    EXPECT_EQ(pool.gpuUsed(), 0);
    EXPECT_EQ(pool.cpuUsed(), 32);
    pool.moveToGpu(s);
    EXPECT_EQ(pool.gpuUsed(), 32);
    EXPECT_EQ(pool.totalFootprintTokens(), 32);
}

TEST(PagedKv, ReleaseReturnsChargedBlocks)
{
    KvPool pool(64, 16);
    KvSlot s = pool.allocGpu(1, 20);
    pool.release(s);
    EXPECT_EQ(pool.gpuUsed(), 0);
    EXPECT_TRUE(pool.canAllocGpu(64));
}

TEST(PagedKv, RejectsBadBlockSize)
{
    EXPECT_THROW(KvPool(100, 0), FatalError);
    EXPECT_THROW(KvPool(100, -4), FatalError);
}

TEST(PagedKv, GrowPanicsAtBlockBoundaryWhenFull)
{
    KvPool pool(32, 16);
    KvSlot s = pool.allocGpu(1, 16);
    pool.allocGpu(2, 16);
    // Request 1 crossing into a new block must panic: no blocks left.
    EXPECT_DEATH(pool.growGpu(s, 1), "over capacity");
}

TEST(PagedKv, SchedulerBudgetsInChargedUnits)
{
    // Capacity 64, blocks of 16. A resident request with kv 17
    // charges 32 + growth rounding; a second with prompt 15 charges
    // 16. Together 48 <= 64: both schedulable.
    core::SchedLimits limits;
    limits.quantum = 500;
    core::RrScheduler sched(limits);
    test::SchedulerHarness h(64, &sched);

    // Build against a paged pool directly.
    model::KvPool pool(64, 16);
    auto* a = h.make(0, 0.0, 16, 100, 10);
    a->completePrefill(0.0, 500); // kv = 17.
    a->kvSlot = pool.allocGpu(a->id(), a->kvTokens());
    a->exec = workload::ExecState::ResidentGpu;
    sched.add(a);

    auto* b = h.make(1, 1.0, 15, 100, 10);
    sched.add(b);

    auto plan = sched.plan(pool);
    // a costs chargeFor(18)=32; b costs chargeFor(16)=16; both fit.
    ASSERT_EQ(plan.prefill.size(), 1u);
    EXPECT_EQ(plan.prefill[0], b);
    EXPECT_TRUE(plan.swapOut.empty());
}

} // namespace
