/**
 * @file
 * RequestArena chunk-recycling tests: a long-lived cluster fed many
 * traces must keep resident Request memory bounded by live requests,
 * recycle fully-finished chunks, and still score byte-identical
 * results.
 */

#include <gtest/gtest.h>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"
#include "src/workload/request_arena.hh"
#include "tests/run_result_util.hh"

namespace
{

using namespace pascal;
using cluster::SystemConfig;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using RequestArenaRecycling = QuietLogs;

workload::Trace
smallTrace(std::uint64_t seed, int n, RequestId first_id)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {48.0, 0.4, 16, 96};
    profile.reasoning = {20.0, 0.5, 8, 48};
    profile.answering = {12.0, 0.4, 4, 32};
    return workload::generateTrace(profile, n, 500.0, rng, 0.0,
                                   first_id);
}

TEST(RequestArenaUnit, RecycleFreesChunkAndCounts)
{
    workload::RequestArena arena;
    auto t0 = smallTrace(1, 20, 0);
    auto t1 = smallTrace(2, 30, 1000);
    arena.addChunk(t0);
    arena.addChunk(t1);
    EXPECT_EQ(arena.numChunks(), 2u);
    EXPECT_EQ(arena.size(), 50u);
    EXPECT_EQ(arena.numRecycledChunks(), 0u);

    arena.recycleChunk(0);
    EXPECT_EQ(arena.numRecycledChunks(), 1u);
    EXPECT_TRUE(arena.chunk(0).empty());
    EXPECT_EQ(arena.chunk(0).capacity(), 0u) << "storage not freed";
    EXPECT_EQ(arena.chunk(1).size(), 30u);
    // Totals keep counting recycled requests; idempotent recycle.
    EXPECT_EQ(arena.size(), 50u);
    arena.recycleChunk(0);
    EXPECT_EQ(arena.numRecycledChunks(), 1u);
    EXPECT_TRUE(arena.chunk(0).empty());
}

TEST_F(RequestArenaRecycling, LongLivedClusterRecyclesFinishedChunks)
{
    // Several traces into ONE cluster: every chunk whose requests all
    // finish is scored and its storage released, so resident Request
    // memory stays bounded by live requests (the per-token emission
    // vectors are the bulk of it).
    SystemConfig cfg = SystemConfig::pascal(2);
    cfg.gpuKvCapacityTokens = 16384;

    cluster::RunContext ctx(cfg);
    ctx.cluster().enableChunkRecycling();
    // Stagger the traces so early chunks drain (and recycle) while
    // later ones are still arriving.
    for (int t = 0; t < 4; ++t) {
        auto trace = smallTrace(10 + static_cast<std::uint64_t>(t), 80,
                                t * 1000);
        for (auto& spec : trace.requests)
            spec.arrival += 2.0 * t;
        ctx.submit(trace);
    }
    ctx.run();
    auto recycled = ctx.result();
    EXPECT_EQ(recycled.numUnfinished, 0u);
    EXPECT_EQ(test::statValue(recycled.statsDump, "cluster.recycled_chunks"),
              4.0);

    // Byte-identical scoring vs the non-recycling run (same rows,
    // same order — the retired chunks were scored at completion).
    cluster::RunContext plain(cfg);
    for (int t = 0; t < 4; ++t) {
        auto trace = smallTrace(10 + static_cast<std::uint64_t>(t), 80,
                                t * 1000);
        for (auto& spec : trace.requests)
            spec.arrival += 2.0 * t;
        plain.submit(trace);
    }
    plain.run();
    auto plain_result = plain.result();
    EXPECT_EQ(
        test::statValue(plain_result.statsDump, "cluster.recycled_chunks"),
        0.0);
    test::expectIdentical(recycled, plain_result);
}

TEST_F(RequestArenaRecycling, HorizonCutChunksAreNotRecycled)
{
    // A chunk with unfinished requests must survive (its requests are
    // still scored as unfinished rows at collection).
    SystemConfig cfg = SystemConfig::pascal(1);
    cfg.gpuKvCapacityTokens = 8192;
    cfg.maxSimTime = 0.5; // Guillotine mid-flight.

    cluster::RunContext ctx(cfg);
    ctx.cluster().enableChunkRecycling();
    ctx.submit(smallTrace(77, 120, 0));
    ctx.run();
    auto result = ctx.result();
    EXPECT_GT(result.numUnfinished, 0u);
    EXPECT_EQ(test::statValue(result.statsDump, "cluster.recycled_chunks"),
              0.0);
    EXPECT_EQ(result.perRequest.size(), 120u);
}

} // namespace
