/**
 * @file
 * Per-request and aggregate serving metrics.
 *
 * Converts the raw timestamps a Request accumulates during simulation
 * into the quantities the paper reports: TTFT (submission to first
 * answering token, Fig. 1(b)), TTFAT, reasoning/answering latency with
 * executed/blocked/preempted breakdowns (Fig. 4/5), QoE and SLO
 * violations (Fig. 11), blocking latency (Fig. 13), and KV transfer
 * latencies (Section V-C).
 */

#ifndef PASCAL_QOE_METRICS_HH
#define PASCAL_QOE_METRICS_HH

#include <array>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/qoe/slo.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace qoe
{

/** Everything the harnesses need to know about one finished request. */
struct RequestMetrics
{
    RequestId id = kNoRequest;
    std::string dataset;
    Time arrival = 0.0;
    TokenCount promptTokens = 0;
    TokenCount reasoningTokens = 0;
    TokenCount answerTokens = 0;

    bool finished = false;

    /** Terminally failed by the fault layer (failed implies
     *  !finished); why is in failReason. */
    bool failed = false;
    workload::FailReason failReason = workload::FailReason::None;

    /** Service class from the spec (Standard when classes are off). */
    workload::SloClass sloClass = workload::SloClass::Standard;

    /** The armed relative deadline expired before completion. */
    bool deadlineExpired = false;

    /** Finished as best-effort after a demote-on-expiry. */
    bool bestEffort = false;

    /** Submission to first answering token (the paper's TTFT). */
    double ttft = 0.0;
    /** Reasoning end (</think>) to first answering token. */
    double ttfat = 0.0;
    /** Submission to reasoning end (Fig. 4's reasoning latency). */
    double reasoningLatency = 0.0;
    /** Submission to completion. */
    double e2eLatency = 0.0;
    /** Arrival/transition to completion of the answering phase. */
    double answeringLatency = 0.0;
    /** Reasoning end to first answering-phase decode step (Fig. 13(c)
     *  "blocking latency"). */
    double blockingLatency = 0.0;
    /** Arrival to the first time any work ran for the request. */
    double queueingDelay = 0.0;
    /** Mean seconds per answering token after the first. */
    double meanTpot = 0.0;

    workload::PhaseBuckets reasoningBuckets;
    workload::PhaseBuckets answeringBuckets;

    double qoe = 1.0;
    bool sloViolated = false;

    int migrationCount = 0;
    std::vector<double> kvTransferLatencies;
};

/**
 * Bind the QoE targets @p req folds its answer with; call once, at
 * admission, before its first answering token.
 *
 * The targets are @p slo's, or the class's TPOT/TTFAT when @p classes
 * is non-null and enabled (the anchoring mode stays @p slo's). When a
 * deadline expiry can demote the request to best-effort, which is
 * scored against Batch's targets, it folds Batch's targets as well,
 * since a demotion may land mid-answer.
 */
void bindQoeTargets(workload::Request& req, const SloConfig& slo,
                    const SloClassConfig* classes = nullptr);

/**
 * Score one simulated request against @p slo and @p classes, which
 * must be the configs its QoE targets were bound under
 * (bindQoeTargets); a finished request scored under any other targets
 * panics. A best-effort request scores against Batch's targets.
 *
 * Metrics of an unfinished request have finished == false and only
 * the fields known so far.
 */
RequestMetrics computeRequestMetrics(
    const workload::Request& req, const SloConfig& slo,
    const SloClassConfig* classes = nullptr);

/** Cluster-level rollup of a run. */
struct AggregateMetrics
{
    std::size_t numRequests = 0;
    std::size_t numFinished = 0;
    double makespan = 0.0;           //!< First arrival to last finish.
    double throughputTokensPerSec = 0.0;
    double meanTtft = 0.0;
    double p50Ttft = 0.0;
    double p99Ttft = 0.0;
    double maxTtft = 0.0;
    double meanQoe = 0.0;
    double sloViolationRate = 0.0;   //!< Fraction of finished requests.
    double meanE2eLatency = 0.0;
    double p50E2eLatency = 0.0;
    double p99E2eLatency = 0.0;
    /** Mean answering-phase latency over finished requests (the
     *  speculative schedulers' headline metric). */
    double meanAnsweringLatency = 0.0;
    double p99BlockingLatency = 0.0;
    double p99KvTransferLatency = 0.0;
    int totalMigrations = 0;
};

/** Roll up a set of per-request metrics. */
AggregateMetrics aggregateMetrics(
    const std::vector<RequestMetrics>& requests);

/** Per-class rollup (subset of AggregateMetrics that is meaningful
 *  per tenant class). Latency stats cover finished requests only. */
struct ClassAggregate
{
    std::size_t numRequests = 0;
    std::size_t numFinished = 0;
    double meanTtft = 0.0;
    double p50Ttft = 0.0;
    double p99Ttft = 0.0;
    double meanE2eLatency = 0.0;
    double meanQoe = 0.0;
    double sloViolationRate = 0.0;
};

/** Roll up @p requests per SLO class (demoted best-effort requests
 *  count against their nominal class). */
std::array<ClassAggregate, workload::kNumSloClasses>
aggregateByClass(const std::vector<RequestMetrics>& requests);

} // namespace qoe
} // namespace pascal

#endif // PASCAL_QOE_METRICS_HH
