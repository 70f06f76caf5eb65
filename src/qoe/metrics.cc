#include "src/qoe/metrics.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "src/common/log.hh"
#include "src/common/stats.hh"
#include "src/qoe/qoe.hh"

namespace pascal
{
namespace qoe
{

namespace
{

/** The target sets a request folds its QoE with (see bindQoeTargets). */
struct QoeBinding
{
    QoeTargets own;
    QoeTargets demoted;     //!< Batch's targets.
    bool demotable = false; //!< Fold demoted as well.
};

QoeBinding
qoeBinding(workload::SloClass c, const SloConfig& slo,
           const SloClassConfig* classes)
{
    // Per-class targets override the global ones when the class
    // subsystem is on; the anchoring mode stays global.
    QoeBinding b;
    b.own = {slo.tpotTarget, slo.ttfatTarget, slo.qoeFromFirstToken};
    if (classes == nullptr || !classes->enabled)
        return b;
    auto targets = [&](const SloClassParams& p) {
        return QoeTargets{p.tpotTarget, p.ttfatTarget,
                          slo.qoeFromFirstToken};
    };
    b.own = targets(classes->of(c));
    b.demoted = targets(classes->of(workload::SloClass::Batch));
    b.demotable = classes->of(c).demoteOnExpiry && !(b.demoted == b.own);
    return b;
}

} // namespace

void
bindQoeTargets(workload::Request& req, const SloConfig& slo,
               const SloClassConfig* classes)
{
    const QoeBinding b = qoeBinding(req.spec().sloClass, slo, classes);
    req.qoe = QoeFold(b.own);
    req.bestEffortQoe =
        b.demotable ? std::make_unique<QoeFold>(b.demoted) : nullptr;
}

RequestMetrics
computeRequestMetrics(const workload::Request& req, const SloConfig& slo,
                      const SloClassConfig* classes)
{
    slo.validate();

    const auto& spec = req.spec();
    RequestMetrics m;
    m.id = spec.id;
    m.dataset = spec.dataset;
    m.arrival = spec.arrival;
    m.promptTokens = spec.promptTokens;
    m.reasoningTokens = spec.reasoningTokens;
    m.answerTokens = spec.answerTokens;
    m.reasoningBuckets = req.reasoningBuckets;
    m.answeringBuckets = req.answeringBuckets;
    m.migrationCount = req.migrationCount;
    m.kvTransferLatencies = req.kvTransferLatencies;
    m.finished = req.finished();
    m.failReason = req.failReason;
    m.failed = m.failReason != workload::FailReason::None;
    m.sloClass = spec.sloClass;
    m.deadlineExpired = req.deadlineExpired;
    m.bestEffort = req.bestEffort;

    if (req.reasoningEnd >= 0.0)
        m.reasoningLatency = req.reasoningEnd - spec.arrival;
    if (req.firstAnswer >= 0.0) {
        m.ttft = req.firstAnswer - spec.arrival;
        m.ttfat = req.firstAnswer - req.reasoningEnd;
    }
    if (req.firstAnswerScheduled >= 0.0 && req.reasoningEnd >= 0.0)
        m.blockingLatency = req.firstAnswerScheduled - req.reasoningEnd;
    if (req.firstScheduled >= 0.0)
        m.queueingDelay = req.firstScheduled - spec.arrival;

    if (!m.finished)
        return m;

    m.e2eLatency = req.finish - spec.arrival;
    m.answeringLatency = req.finish - req.reasoningEnd;

    if (spec.answerTokens > 1) {
        m.meanTpot = (req.finish - req.firstAnswer) /
                     static_cast<double>(spec.answerTokens - 1);
    }

    // The fold ran against the targets bound at admission; scoring
    // under any other config would silently mix two target sets.
    const QoeBinding b = qoeBinding(spec.sloClass, slo, classes);
    if (!(req.qoe.targets() == b.own) ||
        (req.bestEffortQoe != nullptr) != b.demotable ||
        (b.demotable && !(req.bestEffortQoe->targets() == b.demoted))) {
        panic("request " + std::to_string(spec.id) +
              " is scored under QoE targets other than the ones bound "
              "at its admission");
    }
    // A best-effort request is scored against Batch's targets.
    const QoeFold& fold =
        req.bestEffort && b.demotable ? *req.bestEffortQoe : req.qoe;
    m.qoe = fold.score(spec.answerTokens);
    m.sloViolated = m.qoe < slo.qoeThreshold;
    return m;
}

AggregateMetrics
aggregateMetrics(const std::vector<RequestMetrics>& requests)
{
    AggregateMetrics agg;
    agg.numRequests = requests.size();
    if (requests.empty())
        return agg;

    // Single pass: every mean/count/extremum streams through a
    // Welford Summary, and the sample vectors that percentiles
    // genuinely need are filled exactly once (reserved up front) and
    // sorted exactly once each — a million-request run no longer
    // copies and re-sorts the same latencies once per quantile.
    std::vector<double> ttfts, e2es, blockings, transfers;
    ttfts.reserve(requests.size());
    e2es.reserve(requests.size());
    blockings.reserve(requests.size());
    stats::Summary ttft_sum;
    stats::Summary e2e_sum;
    stats::Summary qoe_sum;
    stats::Summary answering_sum;
    Time first_arrival = kTimeInfinity;
    Time last_finish = 0.0;
    TokenCount total_tokens = 0;
    std::size_t violations = 0;

    for (const auto& m : requests) {
        first_arrival = std::min(first_arrival, m.arrival);
        if (!m.finished)
            continue;
        ++agg.numFinished;
        ttft_sum.add(m.ttft);
        ttfts.push_back(m.ttft);
        e2e_sum.add(m.e2eLatency);
        e2es.push_back(m.e2eLatency);
        answering_sum.add(m.answeringLatency);
        blockings.push_back(m.blockingLatency);
        for (double t : m.kvTransferLatencies)
            transfers.push_back(t);
        qoe_sum.add(m.qoe);
        if (m.sloViolated)
            ++violations;
        last_finish = std::max(last_finish, m.arrival + m.e2eLatency);
        total_tokens += m.reasoningTokens + m.answerTokens;
        agg.totalMigrations += m.migrationCount;
    }

    if (agg.numFinished == 0)
        return agg;

    agg.makespan = last_finish - first_arrival;
    if (agg.makespan > 0.0) {
        agg.throughputTokensPerSec =
            static_cast<double>(total_tokens) / agg.makespan;
    }

    std::sort(ttfts.begin(), ttfts.end());
    agg.meanTtft = ttft_sum.mean();
    agg.maxTtft = ttft_sum.max();
    agg.p50Ttft = stats::percentileOfSorted(ttfts, 50.0);
    agg.p99Ttft = stats::percentileOfSorted(ttfts, 99.0);

    std::sort(e2es.begin(), e2es.end());
    agg.meanE2eLatency = e2e_sum.mean();
    agg.p50E2eLatency = stats::percentileOfSorted(e2es, 50.0);
    agg.p99E2eLatency = stats::percentileOfSorted(e2es, 99.0);
    agg.meanAnsweringLatency = answering_sum.mean();

    std::sort(blockings.begin(), blockings.end());
    agg.p99BlockingLatency =
        stats::percentileOfSorted(blockings, 99.0);
    std::sort(transfers.begin(), transfers.end());
    agg.p99KvTransferLatency =
        stats::percentileOfSorted(transfers, 99.0);

    agg.meanQoe = qoe_sum.mean();
    agg.sloViolationRate = static_cast<double>(violations) /
                           static_cast<double>(agg.numFinished);
    return agg;
}

std::array<ClassAggregate, workload::kNumSloClasses>
aggregateByClass(const std::vector<RequestMetrics>& requests)
{
    std::array<ClassAggregate, workload::kNumSloClasses> out{};
    std::array<std::vector<double>, workload::kNumSloClasses> ttfts;
    std::array<stats::Summary, workload::kNumSloClasses> ttft_sums;
    std::array<stats::Summary, workload::kNumSloClasses> e2e_sums;
    std::array<stats::Summary, workload::kNumSloClasses> qoe_sums;
    std::array<std::size_t, workload::kNumSloClasses> violations{};

    for (const auto& m : requests) {
        std::size_t i = workload::sloClassIndex(m.sloClass);
        ++out[i].numRequests;
        if (!m.finished)
            continue;
        ++out[i].numFinished;
        ttft_sums[i].add(m.ttft);
        ttfts[i].push_back(m.ttft);
        e2e_sums[i].add(m.e2eLatency);
        qoe_sums[i].add(m.qoe);
        if (m.sloViolated)
            ++violations[i];
    }

    for (std::size_t i = 0; i < workload::kNumSloClasses; ++i) {
        if (out[i].numFinished == 0)
            continue;
        std::sort(ttfts[i].begin(), ttfts[i].end());
        out[i].meanTtft = ttft_sums[i].mean();
        out[i].p50Ttft = stats::percentileOfSorted(ttfts[i], 50.0);
        out[i].p99Ttft = stats::percentileOfSorted(ttfts[i], 99.0);
        out[i].meanE2eLatency = e2e_sums[i].mean();
        out[i].meanQoe = qoe_sums[i].mean();
        out[i].sloViolationRate =
            static_cast<double>(violations[i]) /
            static_cast<double>(out[i].numFinished);
    }
    return out;
}

} // namespace qoe
} // namespace pascal
