/**
 * @file
 * Arrival-burst planning tests.
 *
 * Same-timestamp arrivals are drained as one burst event: placement
 * stays per-arrival, and every member defers its plan boundary to a
 * same-timestamp event, so each instance plans the burst only after
 * the whole burst is placed. The contract: on a quantized arrival
 * storm, every burst member is admitted before its instance's first
 * plan boundary at that timestamp, plan builds stay strictly below
 * arrivals, and the debug recompute modes stay byte-identical.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/obs/stat_registry.hh"
#include "src/workload/generator.hh"
#include "tests/run_result_util.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SystemConfig;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using ArrivalBurst = QuietLogs;
using ForceModeMatrix = QuietLogs;

/**
 * Arrival-storm trace with genuine bursts: Poisson arrivals quantized
 * onto a coarse tick grid, so tens of requests share each timestamp
 * (the CascadeInfer-style arrival-storm regime).
 */
workload::Trace
burstTrace(std::uint64_t seed, int n = 400, double rate = 800.0,
           double tick = 0.02)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {80.0, 0.5, 32, 192};
    profile.reasoning = {160.0, 0.7, 24, 700};
    profile.answering = {70.0, 0.6, 16, 300};
    auto trace = workload::generateTrace(profile, n, rate, rng);
    for (auto& spec : trace.requests) {
        spec.arrival =
            tick * static_cast<double>(
                       static_cast<std::int64_t>(spec.arrival / tick));
    }
    return trace;
}

SystemConfig
stormConfig(SchedulerType sched, predict::PredictorConfig pred)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = pred.type == predict::PredictorType::None
                        ? PlacementType::Pascal
                        : PlacementType::PascalPredictive;
    cfg.predictor = pred;
    cfg.numInstances = 3;
    cfg.gpuKvCapacityTokens = 8192; // Tight: admission backlogs form.
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 700;
    return cfg;
}

predict::PredictorConfig
predictorNamed(const std::string& kind)
{
    predict::PredictorConfig cfg;
    if (kind == "oracle")
        cfg.type = predict::PredictorType::Oracle;
    else if (kind == "profile")
        cfg.type = predict::PredictorType::Profile;
    return cfg;
}

/** One trace event reduced to what the burst check reads. */
struct TraceRow
{
    std::string cat;
    std::string name;
    int tid = 0;
    std::string ts; //!< Rendered timestamp: exact for equal times.
};

/** Parse the one-event-per-line Chrome JSON that TraceSink writes. */
std::vector<TraceRow>
parseTrace(const std::string& json)
{
    auto field = [](const std::string& line, const std::string& key) {
        std::size_t at = line.find("\"" + key + "\": ");
        if (at == std::string::npos)
            return std::string();
        at += key.size() + 4;
        if (line[at] == '"') {
            ++at;
            return line.substr(at, line.find('"', at) - at);
        }
        return line.substr(at, line.find_first_of(",}", at) - at);
    };
    std::vector<TraceRow> rows;
    std::istringstream in(json);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("{\"name\": ", 0) != 0)
            continue;
        rows.push_back({field(line, "cat"), field(line, "name"),
                        std::stoi(field(line, "tid")), field(line, "ts")});
    }
    return rows;
}

TEST_F(ArrivalBurst, BurstIsPlacedBeforeItIsPlanned)
{
    // A bursty arrival storm with short generations: tens of requests
    // share each timestamp and bursts often land on idle instances.
    Rng rng(77);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {48.0, 0.4, 16, 96};
    profile.reasoning = {10.0, 0.4, 4, 24};
    profile.answering = {6.0, 0.4, 2, 16};
    auto trace = workload::generateTrace(profile, 2000, 4000.0, rng);
    for (auto& spec : trace.requests) {
        spec.arrival =
            0.05 * static_cast<double>(
                       static_cast<std::int64_t>(spec.arrival / 0.05));
    }

    SystemConfig cfg =
        stormConfig(SchedulerType::Pascal, predictorNamed("none"));
    cfg.gpuKvCapacityTokens = 65536; // Ample: bursts admit whole.
    cfg.telemetry.traceEnabled = true;
    cfg.telemetry.traceCapacity = 1u << 20; // Never wraps here.

    cluster::RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    EXPECT_EQ(result.numUnfinished, 0u);
    // One plan boundary per burst per instance: both plan builds and
    // iterations stay strictly below the arrival count (planning each
    // member as it arrived would pay one boundary per arrival).
    const obs::StatValue* plan_builds =
        obs::findStat(result.statsDump, "cluster.plan.builds");
    ASSERT_NE(plan_builds, nullptr);
    EXPECT_LT(plan_builds->value, static_cast<double>(trace.size()));
    EXPECT_LT(result.totalIterations, trace.size());

    // Per (instance, timestamp): no plan boundary between the first
    // and the last admission of the burst members placed there.
    struct Group
    {
        std::size_t admits = 0;
        bool planned = false;
    };
    std::map<std::pair<int, std::string>, Group> groups;
    std::size_t admits = 0;
    std::size_t multi_member_bursts = 0;
    std::size_t admitted_after_plan = 0;
    for (const TraceRow& row : parseTrace(result.traceJson)) {
        auto key = std::make_pair(row.tid, row.ts);
        if (row.cat == "admission" && row.name == "admit") {
            Group& g = groups[key];
            if (g.planned)
                ++admitted_after_plan;
            if (++g.admits == 2)
                ++multi_member_bursts;
            ++admits;
        } else if (row.cat == "plan") {
            auto it = groups.find(key);
            if (it != groups.end())
                it->second.planned = true;
        }
    }
    EXPECT_EQ(admitted_after_plan, 0u);
    EXPECT_EQ(admits, trace.size());
    EXPECT_GT(multi_member_bursts, 0u);
}

TEST_F(ArrivalBurst, ViewAuditCleanUnderBurstsAndSloHeap)
{
    // View audit (re-verifies the SLO heap against the reference
    // O(hosted) walk at every decision) across an arrival-storm run
    // with migrations and transitions.
    auto trace = burstTrace(31, 250);
    SystemConfig cfg =
        stormConfig(SchedulerType::Pascal, predictorNamed("none"));
    cluster::RunContext ctx(cfg);
    ctx.cluster().enableViewAudit();
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    EXPECT_GT(result.aggregate.numFinished, 0u);
}

TEST_F(ForceModeMatrix, AllFourCornersByteIdentical)
{
    // {FORCE_RESORT} x {FORCE_ACCRUE}: every debug corner recomputes
    // something the fast path maintains incrementally, so all four
    // runs must agree byte-for-byte.
    auto trace = burstTrace(555, 220);
    SystemConfig base =
        stormConfig(SchedulerType::Pascal, predictorNamed("oracle"));

    std::vector<cluster::RunResult> results;
    for (int mask = 0; mask < 4; ++mask) {
        SystemConfig cfg = base;
        cfg.limits.forceResort = (mask & 1) != 0;
        cfg.limits.forceAccrue = (mask & 2) != 0;
        results.push_back(cluster::RunContext::execute(cfg, trace));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        SCOPED_TRACE("mode mask " + std::to_string(i));
        test::expectIdentical(results[0], results[i]);
    }
}

TEST_F(ArrivalBurst, DeferredAdmissionPlansTheBurstTogether)
{
    // Deferred admission (the cluster's burst path) admits a whole
    // t=0 burst before its first plan boundary, so it plans less
    // often than the immediate addRequest chain, which starts an
    // iteration at the first member and plans the rest as they
    // trickle in.
    auto trace = burstTrace(9, 40, 400.0, 1.0);
    SystemConfig cfg =
        stormConfig(SchedulerType::Pascal, predictorNamed("none"));
    cfg.numInstances = 1; // Placement-free: pure admission semantics.

    auto run_with = [&](bool defer_plan) {
        cluster::RunContext ctx(cfg);
        std::vector<workload::Request> owned;
        owned.reserve(trace.size());
        for (const auto& spec : trace.requests)
            owned.emplace_back(spec);
        auto& inst = *ctx.cluster().getInstances()[0];
        for (auto& r : owned)
            inst.addRequest(&r, defer_plan);
        ctx.run();
        return std::pair<std::uint64_t, std::uint64_t>(
            inst.numPlanBuilds(), inst.numIterations());
    };

    auto deferred = run_with(true);
    auto immediate = run_with(false);
    EXPECT_LT(deferred.first, immediate.first);
    EXPECT_LE(deferred.second, immediate.second);
}

} // namespace
