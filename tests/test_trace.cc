/**
 * @file
 * Unit tests for Trace validation, sorting, merging, and CSV round
 * trips.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"
#include "src/workload/trace.hh"

namespace
{

using namespace pascal;
using workload::RequestSpec;
using workload::Trace;

RequestSpec
spec(RequestId id, Time arrival)
{
    RequestSpec s;
    s.id = id;
    s.arrival = arrival;
    s.promptTokens = 128;
    s.reasoningTokens = 100;
    s.answerTokens = 50;
    s.dataset = "unit";
    return s;
}

TEST(Trace, SortByArrival)
{
    Trace t;
    t.requests = {spec(0, 3.0), spec(1, 1.0), spec(2, 2.0)};
    t.sortByArrival();
    EXPECT_EQ(t.requests[0].id, 1);
    EXPECT_EQ(t.requests[1].id, 2);
    EXPECT_EQ(t.requests[2].id, 0);
    t.validate();
}

TEST(Trace, ValidateRejectsDuplicateIds)
{
    Trace t;
    t.requests = {spec(1, 1.0), spec(1, 2.0)};
    EXPECT_THROW(t.validate(), FatalError);
}

TEST(Trace, ValidateRejectsUnsorted)
{
    Trace t;
    t.requests = {spec(0, 2.0), spec(1, 1.0)};
    EXPECT_THROW(t.validate(), FatalError);
}

TEST(Trace, TotalGeneratedTokens)
{
    Trace t;
    t.requests = {spec(0, 0.0), spec(1, 1.0)};
    EXPECT_EQ(t.totalGeneratedTokens(), 2 * 150);
}

TEST(Trace, MergeKeepsOrderAndValidates)
{
    Trace a;
    a.requests = {spec(0, 1.0), spec(1, 3.0)};
    Trace b;
    b.requests = {spec(2, 2.0)};
    Trace m = Trace::merge(a, b);
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.requests[0].id, 0);
    EXPECT_EQ(m.requests[1].id, 2);
    EXPECT_EQ(m.requests[2].id, 1);
}

TEST(Trace, CsvRoundTrip)
{
    Trace t;
    t.requests = {spec(0, 0.5), spec(1, 1.25)};
    t.requests[1].startInAnswering = true;
    t.requests[1].reasoningTokens = 0;
    t.requests[0].sloClass = workload::SloClass::Interactive;
    t.requests[1].sloClass = workload::SloClass::Batch;

    std::string path = testing::TempDir() + "pascal_trace_test.csv";
    t.toCsv(path);
    Trace back = Trace::fromCsv(path);
    std::remove(path.c_str());

    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.requests[0].id, 0);
    EXPECT_DOUBLE_EQ(back.requests[0].arrival, 0.5);
    EXPECT_EQ(back.requests[0].promptTokens, 128);
    EXPECT_EQ(back.requests[0].reasoningTokens, 100);
    EXPECT_EQ(back.requests[0].answerTokens, 50);
    EXPECT_FALSE(back.requests[0].startInAnswering);
    EXPECT_EQ(back.requests[0].dataset, "unit");
    EXPECT_TRUE(back.requests[1].startInAnswering);
    EXPECT_EQ(back.requests[0].sloClass,
              workload::SloClass::Interactive);
    EXPECT_EQ(back.requests[1].sloClass, workload::SloClass::Batch);

    // Generated arrivals carry full double precision; every one must
    // survive the round trip bit for bit.
    Rng rng(31);
    Trace gen = workload::generateTrace(
        workload::DatasetProfile::arenaHard(), 300, 8.0, rng);
    gen.toCsv(path);
    Trace gen_back = Trace::fromCsv(path);
    std::remove(path.c_str());
    ASSERT_EQ(gen_back.size(), gen.size());
    for (std::size_t i = 0; i < gen.size(); ++i) {
        EXPECT_EQ(gen_back.requests[i].id, gen.requests[i].id);
        EXPECT_EQ(gen_back.requests[i].arrival, gen.requests[i].arrival)
            << "request " << gen.requests[i].id;
    }
}

/** Writes a one-row CSV whose arrival column is @p arrival. */
std::string
csvWithArrival(const std::string& name, const char* arrival)
{
    std::string path = testing::TempDir() + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return path;
    std::fputs("id,arrival,prompt,reasoning,answer,start_in_answering,"
               "dataset,slo_class\n",
               f);
    std::fprintf(f, "7,%s,128,100,50,0,unit,1\n", arrival);
    std::fclose(f);
    return path;
}

TEST(Trace, FromCsvRejectsNonFiniteArrival)
{
    for (const char* arrival : {"nan", "inf", "-inf"}) {
        SCOPED_TRACE(arrival);
        std::string path =
            csvWithArrival("pascal_trace_nonfinite.csv", arrival);
        try {
            Trace::fromCsv(path);
            ADD_FAILURE() << "loaded a trace with arrival " << arrival;
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find("RequestSpec 7"),
                      std::string::npos)
                << e.what();
        }
        std::remove(path.c_str());
    }
}

TEST(Trace, LegacyCsvWithoutClassColumnDefaultsToStandard)
{
    // Pre-class 7-column CSVs must keep loading, with every request
    // landing in the Standard class.
    std::string path = testing::TempDir() + "pascal_trace_legacy.csv";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("id,arrival,prompt_tokens,reasoning_tokens,"
                   "answer_tokens,start_in_answering,dataset\n",
                   f);
        std::fputs("0,0.5,128,100,50,0,unit\n", f);
        std::fclose(f);
    }
    Trace back = Trace::fromCsv(path);
    std::remove(path.c_str());
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.requests[0].sloClass, workload::SloClass::Standard);
}

TEST(Trace, FromCsvMissingFileIsFatal)
{
    EXPECT_THROW(Trace::fromCsv("/nonexistent/path.csv"), FatalError);
}

TEST(Trace, DescribeExternalTrace)
{
    Trace t;
    t.requests = {spec(0, 0.0), spec(1, 1.0)};
    EXPECT_FALSE(t.provenance.generated);
    EXPECT_EQ(t.describe(), "2 requests (external)");
}

TEST(Trace, DescribeGeneratedTrace)
{
    Trace t;
    t.provenance.generated = true;
    t.provenance.profile = "alpaca-eval";
    t.provenance.n = 100;
    t.provenance.ratePerSec = 12.5;
    EXPECT_EQ(t.describe(), "alpaca-eval n=100 rate=12.5");
    t.provenance.seed = 7;
    t.provenance.seedKnown = true;
    EXPECT_EQ(t.describe(), "alpaca-eval n=100 rate=12.5 seed=7");
}

TEST(Trace, EmptyTraceValidates)
{
    Trace t;
    t.validate();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.totalGeneratedTokens(), 0);
}

} // namespace
