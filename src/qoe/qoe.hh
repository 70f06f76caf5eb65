/**
 * @file
 * Quality-of-Experience metric (Fig. 3, following Andes).
 *
 * QoE is the ratio between the area under the user-digested token
 * curve and the area under the user-expected token curve. The expected
 * curve rises one token per tpot starting at the expected start e0;
 * the digested curve is the pacer release schedule
 * d_k = max(e_k, d_{k-1} + tpot), d_0 = max(e_0, e0), for emission
 * times e_k. A request served at or ahead of pace scores 1; pauses
 * that drain the pacer buffer push digestion behind schedule and lower
 * the score.
 *
 * Runs score every answer through a QoeFold: fixed-size state per
 * target set, one update per answering token and an O(1) ratio at
 * finish, so no request keeps its emission times. buildQoeCurves()
 * materializes the three curves for a given timeline; it draws Fig. 3
 * and is the reference the fold is tested against.
 */

#ifndef PASCAL_QOE_QOE_HH
#define PASCAL_QOE_QOE_HH

#include <algorithm>
#include <vector>

#include "src/common/types.hh"

namespace pascal
{
namespace qoe
{

/** The targets one answer is scored against: its expected curve. */
struct QoeTargets
{
    /** Expected seconds between digested tokens. */
    Time tpot = 0.0;
    /** Expected delay from reasoning end to the first answer token;
     *  anchors the curve unless fromFirstToken. */
    Time ttfat = 0.0;
    /** Anchor the expected curve at the first answer token (main
     *  evaluation) instead of at reasoningEnd + ttfat (Fig. 5). */
    bool fromFirstToken = true;
};

bool operator==(const QoeTargets& a, const QoeTargets& b);

/**
 * Streaming QoE of one answer against one target set.
 *
 * Keeps the last digest d and, measured from the anchor e0, the sums
 * D = sum of (d_k - e0) and X = sum of (x_k - e0) over the expected
 * times x_k = e0 + k * tpot. With n tokens and horizon
 * H = max(d_last, x_{n-1}), the two areas of Fig. 3 are
 *   digested = n * (H - e0) - D,  expected = n * (H - e0) - X.
 * Digests, expected times and the horizon are the same doubles
 * buildQoeCurves computes, so the score differs from the reference
 * only by summation order. (The closed form X = tpot * n(n-1)/2 would
 * skip the rounding of x_k at the magnitude of absolute time, which
 * moves a short answer's score by up to 2e-11.)
 */
class QoeFold
{
  public:
    QoeFold() = default;
    explicit QoeFold(const QoeTargets& targets) : bound(targets) {}

    const QoeTargets& targets() const { return bound; }

    /** Fold the first answer token, emitted at @p emit; the anchor is
     *  fixed here from @p emit or @p reasoning_end. */
    void
    first(Time emit, Time reasoning_end)
    {
        anchor = bound.fromFirstToken ? emit : reasoning_end + bound.ttfat;
        digest = std::max(emit, anchor);
        digestedSum = digest - anchor;
        expectedSum = 0.0;
    }

    /** Fold answer token @p k >= 1, emitted at @p emit (emission
     *  times are non-decreasing). */
    void
    next(Time emit, TokenCount k)
    {
        digest = std::max(emit, digest + bound.tpot);
        digestedSum += digest - anchor;
        expectedSum += expectedAt(k) - anchor;
    }

    /** QoE in [0, 1] of an answer of @p n >= 1 folded tokens; 1 when
     *  the expected area is empty. */
    double score(TokenCount n) const;

  private:
    /** Expected digestion time x_k of token @p k. */
    Time
    expectedAt(TokenCount k) const
    {
        return anchor + static_cast<double>(k) * bound.tpot;
    }

    QoeTargets bound;
    Time anchor = 0.0;        //!< Expected start e0.
    Time digest = 0.0;        //!< Digest of the last folded token.
    double digestedSum = 0.0; //!< D: sum of (d_k - e0).
    double expectedSum = 0.0; //!< X: sum of (x_k - e0).
};

/**
 * The three curves of Fig. 3, sampled at each token index: expected
 * digestion time, actual digestion (pacer release) time, and raw
 * generation time, plus their area-ratio QoE.
 */
struct QoeCurves
{
    std::vector<Time> expected;  //!< expected_start + k * tpot.
    std::vector<Time> digested;  //!< Pacer release schedule.
    std::vector<Time> generated; //!< Raw emission times.
    double qoe = 1.0;            //!< 1.0 for an empty timeline.
};

/**
 * Build the Fig. 3 curves for an emission timeline.
 *
 * @param emit_times Generation time of each user-visible token,
 *        non-decreasing.
 * @param expected_start Time the user expects digestion to begin
 *        (first answering token time in the main evaluation;
 *        reasoningEnd + ttfatTarget in the Fig. 5 characterization).
 * @param tpot Expected seconds between digested tokens.
 */
QoeCurves buildQoeCurves(const std::vector<Time>& emit_times,
                         Time expected_start, Time tpot);

} // namespace qoe
} // namespace pascal

#endif // PASCAL_QOE_QOE_HH
