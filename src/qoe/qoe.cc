#include "src/qoe/qoe.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace pascal
{
namespace qoe
{

bool
operator==(const QoeTargets& a, const QoeTargets& b)
{
    return a.tpot == b.tpot && a.ttfat == b.ttfat &&
           a.fromFirstToken == b.fromFirstToken;
}

double
QoeFold::score(TokenCount n) const
{
    const auto count = static_cast<double>(n);
    const double width = std::max(digest, expectedAt(n - 1)) - anchor;
    const double digested_area = count * width - digestedSum;
    const double expected_area = count * width - expectedSum;
    return expected_area <= 0.0
               ? 1.0
               : std::clamp(digested_area / expected_area, 0.0, 1.0);
}

QoeCurves
buildQoeCurves(const std::vector<Time>& emit_times, Time expected_start,
               Time tpot)
{
    if (tpot <= 0.0)
        fatal("buildQoeCurves: tpot must be positive");

    QoeCurves curves;
    curves.generated = emit_times;
    std::size_t n = emit_times.size();
    if (n == 0)
        return curves;

    curves.expected.resize(n);
    curves.digested.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        if (k > 0 && emit_times[k] < emit_times[k - 1])
            fatal("buildQoeCurves: emission times must be non-decreasing");
        curves.expected[k] =
            expected_start + static_cast<double>(k) * tpot;
        Time earliest = (k == 0) ? expected_start
                                 : curves.digested[k - 1] + tpot;
        curves.digested[k] = std::max(emit_times[k], earliest);
    }

    // Area ratio over [expected_start, horizon]. Each token k
    // contributes (horizon - digest_k) to the digested area and
    // (horizon - expected_k) to the expected area; digest_k >=
    // expected_k guarantees the ratio lands in [0, 1].
    Time horizon = std::max(curves.digested.back(),
                            curves.expected.back());
    double digested_area = 0.0;
    double expected_area = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        digested_area += horizon - curves.digested[k];
        expected_area += horizon - curves.expected[k];
    }

    curves.qoe = expected_area <= 0.0
                     ? 1.0
                     : std::clamp(digested_area / expected_area, 0.0, 1.0);
    return curves;
}

} // namespace qoe
} // namespace pascal
