#include "src/obs/streaming_metrics.hh"

#include <algorithm>
#include <cmath>

#include "src/common/log.hh"

namespace pascal
{
namespace obs
{

LogHistogram::LogHistogram(double gamma, double min_value)
    : gammaVal(gamma), minValue(min_value)
{
    if (!(gamma > 1.0))
        panic("LogHistogram: gamma must exceed 1");
    if (!(min_value > 0.0))
        panic("LogHistogram: min_value must be positive");
    invLogGamma = 1.0 / std::log(gamma);
}

std::int64_t
LogHistogram::bucketIndex(double x) const
{
    return static_cast<std::int64_t>(
        std::floor(std::log(x / minValue) * invLogGamma));
}

void
LogHistogram::add(double x)
{
    ++total;
    if (!(x >= minValue)) {
        ++zeroCount;
        return;
    }
    const std::int64_t idx = bucketIndex(x);
    if (buckets.empty()) {
        baseIndex = idx;
        buckets.push_back(0);
    } else if (idx < baseIndex) {
        buckets.insert(buckets.begin(),
                       static_cast<std::size_t>(baseIndex - idx), 0);
        baseIndex = idx;
    } else if (idx >= baseIndex +
                          static_cast<std::int64_t>(buckets.size())) {
        buckets.resize(
            static_cast<std::size_t>(idx - baseIndex) + 1, 0);
    }
    ++buckets[static_cast<std::size_t>(idx - baseIndex)];
}

double
LogHistogram::quantile(double p) const
{
    if (total == 0)
        return 0.0;
    p = std::min(100.0, std::max(0.0, p));
    // Nearest rank, 1-based; p = 0 maps to the first sample.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total)));
    if (rank == 0)
        rank = 1;
    if (rank <= zeroCount)
        return 0.0;
    std::uint64_t cum = zeroCount;
    for (std::size_t k = 0; k < buckets.size(); ++k) {
        cum += buckets[k];
        if (rank <= cum) {
            const double i =
                static_cast<double>(baseIndex +
                                    static_cast<std::int64_t>(k));
            return minValue * std::pow(gammaVal, i + 0.5);
        }
    }
    // Unreachable: cum == total after the loop and rank <= total.
    return minValue *
           std::pow(gammaVal,
                    static_cast<double>(
                        baseIndex +
                        static_cast<std::int64_t>(buckets.size())));
}

double
LogHistogram::relativeError() const
{
    return std::sqrt(gammaVal) - 1.0;
}

P2Quantile::P2Quantile(double p) : prob(p)
{
    if (!(p > 0.0 && p < 1.0))
        panic("P2Quantile: p must lie in (0, 1)");
}

void
P2Quantile::add(double x)
{
    if (n < 5) {
        q[n] = x;
        ++n;
        if (n == 5) {
            std::sort(q.begin(), q.end());
            for (int i = 0; i < 5; ++i)
                pos[i] = i + 1;
            want[0] = 1.0;
            want[1] = 1.0 + 2.0 * prob;
            want[2] = 1.0 + 4.0 * prob;
            want[3] = 3.0 + 2.0 * prob;
            want[4] = 5.0;
        }
        return;
    }

    // Locate the cell containing x and bump extreme markers.
    int cell;
    if (x < q[0]) {
        q[0] = x;
        cell = 0;
    } else if (x >= q[4]) {
        q[4] = std::max(q[4], x);
        cell = 3;
    } else {
        cell = 0;
        while (cell < 3 && x >= q[cell + 1])
            ++cell;
    }
    for (int i = cell + 1; i < 5; ++i)
        pos[i] += 1.0;
    ++n;

    // Desired positions advance by the marker increments.
    want[1] += prob / 2.0;
    want[2] += prob;
    want[3] += (1.0 + prob) / 2.0;
    want[4] += 1.0;

    // Adjust the three interior markers toward their targets with the
    // piecewise-parabolic (P^2) formula, falling back to linear when
    // the parabola would leave the cell monotone order.
    for (int i = 1; i <= 3; ++i) {
        const double d = want[i] - pos[i];
        if ((d >= 1.0 && pos[i + 1] - pos[i] > 1.0) ||
            (d <= -1.0 && pos[i - 1] - pos[i] < -1.0)) {
            const double s = d < 0.0 ? -1.0 : 1.0;
            const double np = pos[i] + s;
            const double parab =
                q[i] +
                s / (pos[i + 1] - pos[i - 1]) *
                    ((pos[i] - pos[i - 1] + s) * (q[i + 1] - q[i]) /
                         (pos[i + 1] - pos[i]) +
                     (pos[i + 1] - pos[i] - s) * (q[i] - q[i - 1]) /
                         (pos[i] - pos[i - 1]));
            if (q[i - 1] < parab && parab < q[i + 1]) {
                q[i] = parab;
            } else {
                q[i] = q[i] + s * (q[i + static_cast<int>(s)] - q[i]) /
                                  (pos[i + static_cast<int>(s)] -
                                   pos[i]);
            }
            pos[i] = np;
        }
    }
}

double
P2Quantile::value() const
{
    if (n == 0)
        return 0.0;
    if (n < 5) {
        // Exact nearest-rank until the markers initialise.
        // Insertion sort over at most 4 samples: a loop the compiler
        // can bound, unlike std::sort's 16-element insertion path.
        std::array<double, 5> tmp = q;
        for (std::uint64_t i = 1; i < n; ++i) {
            double x = tmp[i];
            std::uint64_t j = i;
            for (; j > 0 && x < tmp[j - 1]; --j)
                tmp[j] = tmp[j - 1];
            tmp[j] = x;
        }
        std::uint64_t rank = static_cast<std::uint64_t>(
            std::ceil(prob * static_cast<double>(n)));
        if (rank == 0)
            rank = 1;
        return tmp[rank - 1];
    }
    return q[2];
}

MetricFamily::MetricFamily() : p2_50(0.5), p2_99(0.99) {}

void
MetricFamily::add(double x)
{
    moments.add(x);
    hist.add(x);
    p2_50.add(x);
    p2_99.add(x);
}

void
StreamingMetrics::fold(const qoe::RequestMetrics& m)
{
    ++requests;
    firstArrival = std::min(firstArrival, m.arrival);
    if (!m.finished)
        return;
    ++finished;
    ttftFam.add(m.ttft);
    e2eFam.add(m.e2eLatency);
    answeringFam.add(m.answeringLatency);
    blockingFam.add(m.blockingLatency);
    for (double t : m.kvTransferLatencies)
        kvFam.add(t);
    qoeFam.add(m.qoe);
    if (m.sloViolated)
        ++violations;
    lastFinish = std::max(lastFinish, m.arrival + m.e2eLatency);
    totalTokens += m.reasoningTokens + m.answerTokens;
    migrations += m.migrationCount;
}

qoe::AggregateMetrics
StreamingMetrics::aggregate() const
{
    qoe::AggregateMetrics agg;
    agg.numRequests = requests;
    agg.numFinished = finished;
    if (requests == 0 || finished == 0)
        return agg;

    agg.makespan = lastFinish - firstArrival;
    if (agg.makespan > 0.0) {
        agg.throughputTokensPerSec =
            static_cast<double>(totalTokens) / agg.makespan;
    }

    agg.meanTtft = ttftFam.mean();
    agg.maxTtft = ttftFam.max();
    agg.p50Ttft = ttftFam.quantile(50.0);
    agg.p99Ttft = ttftFam.quantile(99.0);

    agg.meanE2eLatency = e2eFam.mean();
    agg.p50E2eLatency = e2eFam.quantile(50.0);
    agg.p99E2eLatency = e2eFam.quantile(99.0);
    agg.meanAnsweringLatency = answeringFam.mean();

    agg.p99BlockingLatency = blockingFam.quantile(99.0);
    agg.p99KvTransferLatency = kvFam.quantile(99.0);

    agg.meanQoe = qoeFam.mean();
    agg.sloViolationRate = static_cast<double>(violations) /
                           static_cast<double>(finished);
    agg.totalMigrations = migrations;
    return agg;
}

} // namespace obs
} // namespace pascal
