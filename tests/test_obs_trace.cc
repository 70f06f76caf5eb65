/**
 * @file
 * TraceSink tests: the ring/export unit contract (instant/complete/
 * async events, wrap-around drops, the export-seam cleanup that keeps
 * b/e pairs matched) and the end-to-end contract — a traced cluster
 * run emits Perfetto-loadable JSON covering the event vocabulary,
 * byte-identical across same-seed runs, without perturbing the
 * simulation relative to telemetry-off.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/obs/trace_sink.hh"
#include "src/workload/generator.hh"
#include "tests/run_result_util.hh"

namespace
{

using namespace pascal;
using obs::TraceArg;
using obs::TraceCat;
using obs::TraceName;
using obs::TraceSink;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SystemConfig;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using TraceSinkUnit = QuietLogs;
using TraceEndToEnd = QuietLogs;

std::size_t
countOccurrences(const std::string& haystack, const std::string& needle)
{
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST_F(TraceSinkUnit, InstantEventRendersEveryField)
{
    TraceSink sink(8);
    sink.instant(TraceCat::Admission, TraceName::Admit, 3, 0.0025,
                 TraceArg::Request, 17);
    EXPECT_EQ(sink.numRecorded(), 1u);
    EXPECT_EQ(sink.numDropped(), 0u);
    EXPECT_EQ(sink.size(), 1u);

    const std::string json = sink.writeJson();
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"admit\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"admission\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
    // 0.0025 virtual seconds -> 2500.000 us.
    EXPECT_NE(json.find("\"ts\": 2500.000"), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"req\": 17}"), std::string::npos);
}

TEST_F(TraceSinkUnit, CompleteEventCarriesDuration)
{
    TraceSink sink(8);
    sink.complete(TraceCat::Iteration, TraceName::Iteration, 0, 1.0,
                  0.004, TraceArg::Batch, 12);
    const std::string json = sink.writeJson();
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 4000.000"), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"batch\": 12}"),
              std::string::npos);
}

TEST_F(TraceSinkUnit, ReasonArgRendersThroughTheTable)
{
    static const char* const kReasons[] = {"none", "state_changed"};
    TraceSink sink(8);
    sink.setReasonTable(kReasons, 2);
    sink.instant(TraceCat::Plan, TraceName::PlanReuse, 1, 0.5,
                 TraceArg::Reason, 1);
    // Out-of-table codes fall back to the numeric value.
    sink.instant(TraceCat::Plan, TraceName::PlanFullWalk, 1, 0.6,
                 TraceArg::Reason, 99);
    const std::string json = sink.writeJson();
    EXPECT_NE(json.find("\"args\": {\"reason\": \"state_changed\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"reason\": 99}"),
              std::string::npos);
}

TEST_F(TraceSinkUnit, RingWrapDropsOldestAndCountsThem)
{
    TraceSink sink(4);
    for (int i = 0; i < 10; ++i)
        sink.instant(TraceCat::Plan, TraceName::PlanReuse, 0,
                     0.001 * i, TraceArg::Value, i);
    EXPECT_EQ(sink.numRecorded(), 10u);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.numDropped(), 6u);

    // Only the newest four survive, oldest-first in the export.
    const std::string json = sink.writeJson();
    EXPECT_EQ(json.find("\"v\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"v\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"v\": 9"), std::string::npos);
    EXPECT_LT(json.find("\"v\": 6"), json.find("\"v\": 9"));
}

TEST_F(TraceSinkUnit, ExportSeamKeepsAsyncPairsMatched)
{
    TraceSink sink(16);
    // Orphaned end (begin never recorded): dropped at export.
    sink.asyncEnd(TraceCat::Migration, TraceName::KvTransfer, 2, 0.1,
                  77);
    // Open span (no end by export time): closed synthetically at the
    // last recorded timestamp.
    sink.asyncBegin(TraceCat::Migration, TraceName::KvTransfer, 1,
                    0.2, 42, TraceArg::Tokens, 512);
    sink.instant(TraceCat::Slo, TraceName::SloOk, 0, 0.9);

    const std::string json = sink.writeJson();
    EXPECT_EQ(json.find("\"id\": \"77\""), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "\"id\": \"42\""), 2u);
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"b\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"e\""), 1u);
    // The synthetic close lands at the last timestamp (0.9 s).
    EXPECT_EQ(countOccurrences(json, "\"ts\": 900000.000"), 2u);
}

TEST_F(TraceSinkUnit, MatchedPairSurvivesIntact)
{
    TraceSink sink(16);
    sink.asyncBegin(TraceCat::Migration, TraceName::KvTransfer, 1,
                    0.2, 5);
    sink.asyncEnd(TraceCat::Migration, TraceName::KvTransfer, 1, 0.3,
                  5);
    const std::string json = sink.writeJson();
    EXPECT_EQ(countOccurrences(json, "\"id\": \"5\""), 2u);
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"e\""), 1u);
}

/** Churny constrained deployment: admissions, evictions, phase
 *  transitions, migrations, and SLO flips all fire, so the trace
 *  covers the whole event vocabulary. */
workload::Trace
churnTrace(std::uint64_t seed, int n = 140)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {300.0, 0.8, 32, 1500};
    profile.answering = {120.0, 0.7, 16, 600};
    return workload::generateTrace(profile, n, 12.0, rng);
}

SystemConfig
tracedConfig()
{
    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Pascal;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = 4096;
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 600;
    cfg.limits.demoteLookaheadTokens = 128;
    cfg.telemetry.traceEnabled = true;
    return cfg;
}

TEST_F(TraceEndToEnd, TracedRunCoversTheEventVocabulary)
{
    auto trace = churnTrace(42);
    auto result = cluster::RunContext::execute(tracedConfig(), trace);
    ASSERT_FALSE(result.traceJson.empty());

    int categories = 0;
    for (const char* cat :
         {"iteration", "plan", "admission", "eviction", "phase",
          "migration", "slo"}) {
        if (result.traceJson.find("\"cat\": \"" + std::string(cat) +
                                  "\"") != std::string::npos)
            ++categories;
    }
    EXPECT_GE(categories, 6);

    // Plan boundaries label their tier, and non-reuse tiers say why
    // the cheaper tier declined.
    EXPECT_NE(result.traceJson.find("\"name\": \"reuse\""),
              std::string::npos);
    EXPECT_NE(result.traceJson.find("\"args\": {\"reason\": \""),
              std::string::npos);
}

TEST_F(TraceEndToEnd, SameSeedTracesAreByteIdentical)
{
    auto trace = churnTrace(7);
    SystemConfig cfg = tracedConfig();
    auto a = cluster::RunContext::execute(cfg, trace);
    auto b = cluster::RunContext::execute(cfg, trace);
    ASSERT_FALSE(a.traceJson.empty());
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.statsDump, b.statsDump);
}

TEST_F(TraceEndToEnd, TracingDoesNotPerturbTheSimulation)
{
    auto trace = churnTrace(99);
    SystemConfig cfg = tracedConfig();
    auto traced = cluster::RunContext::execute(cfg, trace);
    cfg.telemetry.traceEnabled = false;
    auto plain = cluster::RunContext::execute(cfg, trace);
    EXPECT_TRUE(plain.traceJson.empty());
    test::expectIdentical(traced, plain);
}

TEST_F(TraceEndToEnd, BoundedRingStillExportsMatchedPairs)
{
    auto trace = churnTrace(3, 120);
    SystemConfig cfg = tracedConfig();
    cfg.telemetry.traceCapacity = 64; // Tiny: the ring wraps hard.
    auto result = cluster::RunContext::execute(cfg, trace);
    ASSERT_FALSE(result.traceJson.empty());
    EXPECT_EQ(countOccurrences(result.traceJson, "\"ph\": \"b\""),
              countOccurrences(result.traceJson, "\"ph\": \"e\""));
}

} // namespace
