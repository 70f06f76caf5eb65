/**
 * @file
 * Unit tests for the QoE area-ratio metric (Fig. 3 semantics): the
 * streaming QoeFold that scores runs, checked against the
 * buildQoeCurves reference.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/qoe/qoe.hh"

namespace
{

using pascal::Rng;
using pascal::Time;
using pascal::TokenCount;
using pascal::qoe::buildQoeCurves;
using pascal::qoe::QoeFold;
using pascal::qoe::QoeTargets;

/** Fold @p emits (non-empty) with @p targets, as Request::emitToken
 *  does, and score them. */
double
foldQoe(const std::vector<Time>& emits, const QoeTargets& targets,
        Time reasoning_end)
{
    QoeFold fold(targets);
    fold.first(emits.front(), reasoning_end);
    for (std::size_t k = 1; k < emits.size(); ++k)
        fold.next(emits[k], static_cast<TokenCount>(k));
    return fold.score(static_cast<TokenCount>(emits.size()));
}

/** Fold @p emits against an expected curve starting at
 *  @p expected_start (the Fig. 5 anchoring with a zero TTFAT). */
double
foldedQoe(const std::vector<Time>& emits, Time expected_start, Time tpot)
{
    return foldQoe(emits, QoeTargets{tpot, 0.0, false}, expected_start);
}

std::vector<Time>
pacedEmissions(int n, Time start, Time gap)
{
    std::vector<Time> out;
    for (int i = 0; i < n; ++i)
        out.push_back(start + i * gap);
    return out;
}

TEST(Qoe, PerfectPaceScoresOne)
{
    auto emits = pacedEmissions(10, 0.0, 0.1);
    EXPECT_DOUBLE_EQ(foldedQoe(emits, 0.0, 0.1), 1.0);
}

TEST(Qoe, FasterThanPaceStillOne)
{
    // Generation faster than the user's reading pace is buffered by
    // the pacer; the user experience is exactly on schedule.
    auto emits = pacedEmissions(10, 0.0, 0.01);
    EXPECT_DOUBLE_EQ(foldedQoe(emits, 0.0, 0.1), 1.0);
}

TEST(Qoe, EmptyEmissionsScoreOne)
{
    EXPECT_DOUBLE_EQ(buildQoeCurves({}, 0.0, 0.1).qoe, 1.0);
}

TEST(Qoe, SingleTokenScoresOneOnTimeAndZeroLate)
{
    EXPECT_DOUBLE_EQ(foldedQoe({2.0}, 2.0, 0.1), 1.0);
    EXPECT_DOUBLE_EQ(foldedQoe({2.0}, 3.0, 0.1), 1.0);
    EXPECT_DOUBLE_EQ(foldedQoe({2.0}, 1.0, 0.1), 0.0);
}

TEST(Qoe, PauseLowersScore)
{
    // Fig. 3 scenario: fast burst, long pause, resume. The pause
    // drains the buffer and starves the user.
    std::vector<Time> emits;
    for (int i = 0; i < 5; ++i)
        emits.push_back(0.0); // Burst.
    for (int i = 0; i < 5; ++i)
        emits.push_back(5.0 + i * 0.1); // Resume after a pause.
    double qoe = foldedQoe(emits, 0.0, 0.1);
    EXPECT_LT(qoe, 0.95);
    EXPECT_GT(qoe, 0.0);
}

TEST(Qoe, LongerPauseScoresWorse)
{
    auto make = [](Time pause) {
        std::vector<Time> emits{0.0, 0.0};
        emits.push_back(pause);
        emits.push_back(pause + 0.1);
        return emits;
    };
    EXPECT_GT(foldedQoe(make(1.0), 0.0, 0.1),
              foldedQoe(make(5.0), 0.0, 0.1));
}

TEST(Qoe, LateStartPenalizedWhenExpectedEarlier)
{
    // Expected start at 0 but generation begins at 2: digestion lags.
    auto emits = pacedEmissions(20, 2.0, 0.1);
    double qoe = foldedQoe(emits, 0.0, 0.1);
    EXPECT_LT(qoe, 0.95);
}

TEST(Qoe, ExpectedStartAtFirstTokenIgnoresTtft)
{
    // Main-evaluation mode: the expected curve starts at the first
    // answering token, so a late start alone does not hurt QoE.
    auto emits = pacedEmissions(20, 100.0, 0.1);
    EXPECT_DOUBLE_EQ(foldQoe(emits, QoeTargets{0.1, 0.25, true}, 0.0),
                     1.0);
}

TEST(Qoe, ScoreAlwaysInUnitInterval)
{
    std::vector<Time> emits{0.0, 50.0, 100.0};
    double qoe = foldedQoe(emits, 0.0, 0.1);
    EXPECT_GE(qoe, 0.0);
    EXPECT_LE(qoe, 1.0);
}

TEST(Qoe, CurvesExposeFig3Series)
{
    std::vector<Time> emits{0.0, 0.0, 1.0};
    auto curves = buildQoeCurves(emits, 0.0, 0.5);
    ASSERT_EQ(curves.expected.size(), 3u);
    ASSERT_EQ(curves.digested.size(), 3u);
    EXPECT_DOUBLE_EQ(curves.expected[1], 0.5);
    EXPECT_DOUBLE_EQ(curves.digested[0], 0.0);
    EXPECT_DOUBLE_EQ(curves.digested[1], 0.5);
    EXPECT_DOUBLE_EQ(curves.digested[2], 1.0);
    EXPECT_DOUBLE_EQ(curves.qoe, 1.0);
}

TEST(Qoe, DigestedNeverBeforeExpected)
{
    std::vector<Time> emits{0.0, 0.0, 0.0, 3.0, 3.0};
    auto curves = buildQoeCurves(emits, 0.5, 0.25);
    for (std::size_t k = 0; k < emits.size(); ++k)
        EXPECT_GE(curves.digested[k], curves.expected[k]);
}

TEST(Qoe, RejectsBadInput)
{
    EXPECT_THROW(buildQoeCurves({1.0, 0.5}, 0.0, 0.1),
                 pascal::FatalError);
    EXPECT_THROW(buildQoeCurves({1.0}, 0.0, 0.0), pascal::FatalError);
}

/**
 * The fold against the curves reference on randomized timelines:
 * 1 to 15000 tokens at absolute times up to hours into a run, mixing
 * tied timestamps (bursts), paced and slow stretches and long
 * preemption gaps, with the Fig. 5 anchor before or after the first
 * token, in both anchoring modes.
 */
TEST(Qoe, FoldMatchesCurvesOnRandomTimelines)
{
    Rng rng(20260);
    const TokenCount sizes[] = {1, 2, 3, 15000, 14999};
    double worst = 0.0;
    for (int trial = 0; trial < 600; ++trial) {
        // Log-uniform lengths after the fixed edge sizes.
        const double log_n = rng.uniformReal(0.0, std::log(15000.0));
        const TokenCount n =
            trial < 5 ? sizes[trial]
                      : static_cast<TokenCount>(std::exp(log_n));
        const Time tpot = rng.uniformReal(0.01, 0.3);
        const Time reasoning_end = rng.uniformReal(0.0, 20000.0);
        Time t = reasoning_end + rng.uniformReal(0.0, 3.0);
        std::vector<Time> emits;
        emits.reserve(static_cast<std::size_t>(n));
        for (TokenCount k = 0; k < n; ++k) {
            emits.push_back(t);
            const double kind = rng.uniformReal(0.0, 1.0);
            if (kind < 0.3)
                continue; // Tied with the next token.
            if (kind < 0.33)
                t += rng.uniformReal(10.0, 600.0); // Preemption gap.
            else
                t += rng.uniformReal(0.0, 2.5 * tpot);
        }
        for (bool from_first : {true, false}) {
            const QoeTargets targets{tpot, rng.uniformReal(0.0, 2.0),
                                     from_first};
            const Time expected_start =
                from_first ? emits.front() : reasoning_end + targets.ttfat;
            const double reference =
                buildQoeCurves(emits, expected_start, tpot).qoe;
            const double folded = foldQoe(emits, targets, reasoning_end);
            const double delta = std::fabs(folded - reference);
            worst = std::max(worst, delta);
            ASSERT_LE(delta, 1e-12)
                << "trial " << trial << ", " << n << " tokens, "
                << (from_first ? "first-token" : "TTFAT") << " anchor";
        }
    }
    std::ostringstream worst_text;
    worst_text << worst;
    RecordProperty("worst_abs_delta", worst_text.str());
}

} // namespace
