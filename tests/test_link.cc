/**
 * @file
 * Unit tests for the serializing bandwidth link: FIFO queueing and
 * contention latency (the Section V-C mechanism).
 */

#include <gtest/gtest.h>

#include "src/common/log.hh"
#include "src/model/link.hh"
#include "src/sim/simulator.hh"

namespace
{

using pascal::model::Link;
using pascal::sim::Simulator;

TEST(Link, SingleTransferLatencyIsBytesOverRate)
{
    Simulator sim;
    Link link(sim, 100.0, "test"); // 100 B/s.
    bool done = false;
    pascal::Time completion = link.submit(250, [&] { done = true; });
    EXPECT_DOUBLE_EQ(completion, 2.5);
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Link, BackToBackTransfersQueue)
{
    Simulator sim;
    Link link(sim, 100.0, "test");
    pascal::Time first = link.submit(100, nullptr);  // [0, 1]
    pascal::Time second = link.submit(100, nullptr); // [1, 2]
    EXPECT_DOUBLE_EQ(first, 1.0);
    EXPECT_DOUBLE_EQ(second, 2.0);

    // End-to-end latency from submission at t=0.
    EXPECT_DOUBLE_EQ(first - sim.now(), 1.0);
    EXPECT_DOUBLE_EQ(second - sim.now(), 2.0); // Includes 1 s of queueing.
}

TEST(Link, IdleGapResetsQueue)
{
    Simulator sim;
    Link link(sim, 100.0, "test");
    link.submit(100, [] {}); // Done at t=1.
    sim.run();
    EXPECT_DOUBLE_EQ(sim.now(), 1.0);

    // Submit at t=1; the link is free again.
    pascal::Time done = link.submit(100, nullptr);
    EXPECT_DOUBLE_EQ(done, 2.0);
    EXPECT_DOUBLE_EQ(done - sim.now(), 1.0);
}

TEST(Link, ZeroByteTransferIsInstant)
{
    Simulator sim;
    Link link(sim, 100.0, "test");
    EXPECT_DOUBLE_EQ(link.submit(0, nullptr), 0.0);
}

TEST(Link, QueuedTransfersCompleteAfterTheTotalPayload)
{
    // Queued back to back, the last transfer completes once the link
    // has carried every byte submitted before it: 400 B at 100 B/s.
    Simulator sim;
    Link link(sim, 100.0, "test");
    int completed = 0;
    link.submit(100, [&] { ++completed; });
    EXPECT_DOUBLE_EQ(link.submit(300, [&] { ++completed; }), 4.0);
    EXPECT_DOUBLE_EQ(link.busyUntil(), 4.0);
    sim.run();
    EXPECT_EQ(completed, 2);
    EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Link, RejectsNonPositiveBandwidth)
{
    Simulator sim;
    EXPECT_THROW(Link(sim, 0.0, "bad"), pascal::FatalError);
}

TEST(LinkDeath, NegativeBytesPanics)
{
    Simulator sim;
    Link link(sim, 100.0, "test");
    EXPECT_DEATH(link.submit(-1, nullptr), "negative transfer");
}

} // namespace
