/**
 * @file
 * Shared byte-identical RunResult comparison for determinism and
 * invariance tests: every scalar compared exactly (no tolerance),
 * every vector element-wise. Any divergence between two runs of the
 * same {config, trace} — across threads, across run chunking, or
 * across the incremental/force-resort scheduler modes — is a bug.
 */

#ifndef PASCAL_TESTS_RUN_RESULT_UTIL_HH
#define PASCAL_TESTS_RUN_RESULT_UTIL_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "src/cluster/serving_system.hh"
#include "src/obs/stat_registry.hh"

namespace pascal
{
namespace test
{

/** Registered stat @p name in @p dump; a test failure (and 0) when it
 *  is not registered. */
inline double
statValue(const obs::StatDump& dump, const std::string& name)
{
    const obs::StatValue* s = obs::findStat(dump, name);
    EXPECT_NE(s, nullptr) << "stat '" << name << "' not registered";
    return s == nullptr ? 0.0 : s->value;
}

/** Sum of "instance.<i>.<suffix>" over every instance in @p dump. */
inline double
instanceStatSum(const obs::StatDump& dump, const std::string& suffix)
{
    const std::string tail = "." + suffix;
    double sum = 0.0;
    for (const auto& s : dump) {
        if (s.name.rfind("instance.", 0) == 0 &&
            s.name.size() > tail.size() &&
            s.name.compare(s.name.size() - tail.size(), tail.size(),
                           tail) == 0) {
            sum += s.value;
        }
    }
    return sum;
}

inline void
expectIdenticalBuckets(const workload::PhaseBuckets& a,
                       const workload::PhaseBuckets& b)
{
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.blocked, b.blocked);
    EXPECT_EQ(a.preempted, b.preempted);
}

inline void
expectIdentical(const cluster::RunResult& a, const cluster::RunResult& b)
{
    ASSERT_EQ(a.perRequest.size(), b.perRequest.size());
    for (std::size_t i = 0; i < a.perRequest.size(); ++i) {
        const auto& ra = a.perRequest[i];
        const auto& rb = b.perRequest[i];
        ASSERT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.dataset, rb.dataset);
        EXPECT_EQ(ra.arrival, rb.arrival);
        EXPECT_EQ(ra.finished, rb.finished);
        EXPECT_EQ(ra.failed, rb.failed);
        EXPECT_EQ(ra.failReason, rb.failReason);
        EXPECT_EQ(ra.sloClass, rb.sloClass);
        EXPECT_EQ(ra.deadlineExpired, rb.deadlineExpired);
        EXPECT_EQ(ra.bestEffort, rb.bestEffort);
        EXPECT_EQ(ra.ttft, rb.ttft);
        EXPECT_EQ(ra.ttfat, rb.ttfat);
        EXPECT_EQ(ra.reasoningLatency, rb.reasoningLatency);
        EXPECT_EQ(ra.e2eLatency, rb.e2eLatency);
        EXPECT_EQ(ra.answeringLatency, rb.answeringLatency);
        EXPECT_EQ(ra.blockingLatency, rb.blockingLatency);
        EXPECT_EQ(ra.queueingDelay, rb.queueingDelay);
        EXPECT_EQ(ra.meanTpot, rb.meanTpot);
        EXPECT_EQ(ra.qoe, rb.qoe);
        EXPECT_EQ(ra.sloViolated, rb.sloViolated);
        EXPECT_EQ(ra.migrationCount, rb.migrationCount);
        EXPECT_EQ(ra.kvTransferLatencies, rb.kvTransferLatencies);
        // Phase-time buckets must match to the bit: the lazy-accrual
        // and force-accrue modes share settlement arithmetic, so any
        // divergence is a stale stamp.
        expectIdenticalBuckets(ra.reasoningBuckets, rb.reasoningBuckets);
        expectIdenticalBuckets(ra.answeringBuckets, rb.answeringBuckets);
    }
    EXPECT_EQ(a.aggregate.numRequests, b.aggregate.numRequests);
    EXPECT_EQ(a.aggregate.numFinished, b.aggregate.numFinished);
    EXPECT_EQ(a.aggregate.makespan, b.aggregate.makespan);
    EXPECT_EQ(a.aggregate.throughputTokensPerSec,
              b.aggregate.throughputTokensPerSec);
    EXPECT_EQ(a.aggregate.meanTtft, b.aggregate.meanTtft);
    EXPECT_EQ(a.aggregate.p50Ttft, b.aggregate.p50Ttft);
    EXPECT_EQ(a.aggregate.p99Ttft, b.aggregate.p99Ttft);
    EXPECT_EQ(a.aggregate.maxTtft, b.aggregate.maxTtft);
    EXPECT_EQ(a.aggregate.meanQoe, b.aggregate.meanQoe);
    EXPECT_EQ(a.aggregate.sloViolationRate,
              b.aggregate.sloViolationRate);
    EXPECT_EQ(a.aggregate.meanE2eLatency, b.aggregate.meanE2eLatency);
    EXPECT_EQ(a.aggregate.p50E2eLatency, b.aggregate.p50E2eLatency);
    EXPECT_EQ(a.aggregate.p99E2eLatency, b.aggregate.p99E2eLatency);
    EXPECT_EQ(a.aggregate.meanAnsweringLatency,
              b.aggregate.meanAnsweringLatency);
    EXPECT_EQ(a.aggregate.p99BlockingLatency,
              b.aggregate.p99BlockingLatency);
    EXPECT_EQ(a.aggregate.p99KvTransferLatency,
              b.aggregate.p99KvTransferLatency);
    EXPECT_EQ(a.aggregate.totalMigrations,
              b.aggregate.totalMigrations);
    EXPECT_EQ(a.peakGpuKvTokens, b.peakGpuKvTokens);
    EXPECT_EQ(a.kvCapacityTokens, b.kvCapacityTokens);
    EXPECT_EQ(instanceStatSum(a.statsDump, "engine.iterations"),
              instanceStatSum(b.statsDump, "engine.iterations"));
    EXPECT_EQ(a.numUnfinished, b.numUnfinished);
    EXPECT_EQ(statValue(a.statsDump, "cluster.migrations"),
              statValue(b.statsDump, "cluster.migrations"));
    EXPECT_EQ(a.numCrashes, b.numCrashes);
    EXPECT_EQ(a.numRetries, b.numRetries);
    EXPECT_EQ(a.numShed, b.numShed);
    EXPECT_EQ(a.numTerminalFailures, b.numTerminalFailures);
    EXPECT_EQ(a.goodputFraction, b.goodputFraction);
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        const auto& ca = a.perClass[c];
        const auto& cb = b.perClass[c];
        EXPECT_EQ(ca.submitted, cb.submitted);
        EXPECT_EQ(ca.completed, cb.completed);
        EXPECT_EQ(ca.shed, cb.shed);
        EXPECT_EQ(ca.deadlineFailed, cb.deadlineFailed);
        EXPECT_EQ(ca.retryFailed, cb.retryFailed);
        EXPECT_EQ(ca.demoted, cb.demoted);
        EXPECT_EQ(ca.goodputFraction, cb.goodputFraction);
        EXPECT_EQ(a.classAggregates[c].numRequests,
                  b.classAggregates[c].numRequests);
        EXPECT_EQ(a.classAggregates[c].numFinished,
                  b.classAggregates[c].numFinished);
        EXPECT_EQ(a.classAggregates[c].meanTtft,
                  b.classAggregates[c].meanTtft);
        EXPECT_EQ(a.classAggregates[c].p99Ttft,
                  b.classAggregates[c].p99Ttft);
        EXPECT_EQ(a.classAggregates[c].meanQoe,
                  b.classAggregates[c].meanQoe);
    }
    EXPECT_EQ(a.kvTransferLatencies, b.kvTransferLatencies);
    EXPECT_EQ(a.schedulerName, b.schedulerName);
    EXPECT_EQ(a.placementName, b.placementName);
    EXPECT_EQ(a.predictorName, b.predictorName);
}

} // namespace test
} // namespace pascal

#endif // PASCAL_TESTS_RUN_RESULT_UTIL_HH
