/**
 * @file
 * Contention-focused tests: the Section V-C mechanism (simultaneous
 * KV migrations queueing on one node's fabric ingress) and
 * parameterized sweeps of the token pacer's conservation invariants.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/model/link.hh"
#include "src/qoe/token_pacer.hh"
#include "src/sim/simulator.hh"

namespace
{

using namespace pascal;
using model::Link;
using qoe::TokenPacer;
using sim::Simulator;

TEST(FabricContention, SimultaneousTransfersSerialize)
{
    Simulator sim;
    Link ingress(sim, 1000.0, "ingress"); // 1000 B/s.

    // Five 1000-byte migrations submitted at t=0 into one node.
    std::vector<Time> completions;
    for (int i = 0; i < 5; ++i)
        completions.push_back(ingress.submit(1000, nullptr));

    // Strict FIFO serialization: k-th completes at (k+1) seconds.
    for (int i = 0; i < 5; ++i)
        EXPECT_DOUBLE_EQ(completions[i], static_cast<double>(i + 1));

    // End-to-end latency (the paper's reported metric) grows linearly
    // with queue position.
    for (int i = 1; i < 5; ++i) {
        EXPECT_GT(completions[i] - sim.now(),
                  completions[i - 1] - sim.now());
    }
}

TEST(FabricContention, IndependentIngressLinksDoNotInterfere)
{
    Simulator sim;
    Link a(sim, 1000.0, "ingress-a");
    Link b(sim, 1000.0, "ingress-b");

    Time ta = a.submit(1000, nullptr);
    Time tb = b.submit(1000, nullptr);
    // Different targets: both finish in one second.
    EXPECT_DOUBLE_EQ(ta, 1.0);
    EXPECT_DOUBLE_EQ(tb, 1.0);
}

TEST(FabricContention, LatencyScalesWithKvSize)
{
    Simulator sim;
    Link ingress(sim, 1000.0, "ingress");
    Time small = ingress.submit(500, [] {});
    sim.run(); // Advances the clock to the completion at t=0.5.
    Time big = ingress.submit(5000, nullptr) - sim.now();
    EXPECT_DOUBLE_EQ(small, 0.5);
    EXPECT_DOUBLE_EQ(big, 5.0);
}

/** Parameterized pacer sweep over pace values. */
class PacerSweep : public testing::TestWithParam<double>
{
};

TEST_P(PacerSweep, ReleasesAreMonotoneAndPaced)
{
    double pace = GetParam();
    TokenPacer pacer(pace);

    // Bursty generation: clumps of 4 tokens every 10 paces.
    Time t = 0.0;
    for (int clump = 0; clump < 5; ++clump) {
        for (int i = 0; i < 4; ++i)
            pacer.onTokenGenerated(t);
        t += 10.0 * pace;
    }

    const auto& releases = pacer.releaseTimes();
    ASSERT_EQ(releases.size(), 20u);
    for (std::size_t k = 1; k < releases.size(); ++k) {
        // Monotone, and never faster than the pace.
        EXPECT_GE(releases[k], releases[k - 1] + pace - 1e-12);
    }
    // No token is released before it exists.
    std::size_t idx = 0;
    t = 0.0;
    for (int clump = 0; clump < 5; ++clump) {
        for (int i = 0; i < 4; ++i)
            EXPECT_GE(releases[idx++], t - 1e-12);
        t += 10.0 * pace;
    }
}

TEST_P(PacerSweep, BufferConservation)
{
    double pace = GetParam();
    TokenPacer pacer(pace);
    for (int i = 0; i < 10; ++i)
        pacer.onTokenGenerated(0.0);

    // At any probe time: released + buffered == generated.
    for (double probe : {0.0, 0.5 * pace, 3.0 * pace, 100.0 * pace}) {
        EXPECT_EQ(pacer.releasedBy(probe) + pacer.bufferedAt(probe),
                  10u);
    }
}

INSTANTIATE_TEST_SUITE_P(Paces, PacerSweep,
                         testing::Values(0.01, 0.05, 0.1, 0.5, 2.0),
                         [](const testing::TestParamInfo<double>& info) {
                             return "pace_" +
                                    std::to_string(static_cast<int>(
                                        info.param * 1000));
                         });

} // namespace
