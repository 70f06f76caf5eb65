/**
 * @file
 * SLO classes under an overload storm: does class-aware serving
 * protect Interactive?
 *
 * One class-annotated arrival storm (well past saturation) replayed
 * under three policies of increasing awareness:
 *   - classes-off:  the subsystem dormant — every request competes in
 *     one undifferentiated pool (the pre-class simulator);
 *   - priority-only: classes on, but deadlines and overload control
 *     off — pure class-rank scheduling, nothing is ever rejected;
 *   - full:         deadlines + admission control + Batch
 *     demote-on-expiry — the graceful-degradation stack.
 * Per mode the table reports per-class p99/mean TTFT, goodput, and
 * the shed/deadline/demotion counts. The headline the nightly chart
 * wants: full-mode Interactive p99 TTFT well below the classes-off
 * pool's, paid for with Batch sheds/demotions, while total goodput
 * stays comparable. The JSON artifact goes to argv[1] (default
 * BENCH_slo_classes.json).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using cluster::RunContext;
using cluster::RunResult;
using cluster::SystemConfig;
using workload::SloClass;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Saturating storm on the 4-instance cluster below. */
workload::Trace
stormTrace(int n)
{
    Rng rng(11);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 32, 256};
    profile.reasoning = {200.0, 0.7, 32, 800};
    profile.answering = {80.0, 0.6, 16, 350};
    auto trace = workload::generateTrace(profile, n, 30.0, rng);
    workload::assignSloClasses(trace);
    return trace;
}

enum class Mode
{
    ClassesOff,
    PriorityOnly,
    Full,
};

const char*
modeName(Mode m)
{
    switch (m) {
      case Mode::ClassesOff:
        return "classes-off";
      case Mode::PriorityOnly:
        return "priority-only";
      case Mode::Full:
        return "full";
    }
    return "unknown";
}

SystemConfig
stormConfig(Mode mode)
{
    SystemConfig cfg;
    cfg.scheduler = cluster::SchedulerType::Pascal;
    cfg.placement = cluster::PlacementType::Pascal;
    cfg.numInstances = 4;
    // Small enough that the storm's live set does NOT fit: admission
    // order (and with it the class-rank comparator) decides who
    // prefills next. At 32k the whole backlog rides each prefill
    // batch and every mode degenerates to the same schedule.
    cfg.gpuKvCapacityTokens = 8192;
    switch (mode) {
      case Mode::ClassesOff:
        break;
      case Mode::PriorityOnly:
        cfg.sloClasses.enabled = true;
        cfg.sloClasses.enforceDeadlines = false;
        cfg.sloClasses.overloadControl = false;
        break;
      case Mode::Full:
        cfg.sloClasses.enabled = true; // Default knobs: the full stack.
        break;
    }
    return cfg;
}

struct ModeRow
{
    Mode mode;
    double goodput = 1.0;
    double wallSeconds = 0.0;
    RunResult result;
};

ModeRow
runMode(Mode mode, const workload::Trace& trace)
{
    ModeRow row;
    row.mode = mode;
    SystemConfig cfg = stormConfig(mode);
    auto start = std::chrono::steady_clock::now();
    row.result = RunContext::execute(cfg, trace);
    row.wallSeconds = secondsSince(start);
    row.goodput = row.result.goodputFraction;
    return row;
}

void
print(const ModeRow& row)
{
    std::printf("%-13s goodput=%.4f wall=%.2fs shed=%llu "
                "deadline_failed=%llu demoted=%llu\n",
                modeName(row.mode), row.goodput, row.wallSeconds,
                static_cast<unsigned long long>(row.result.numShed),
                static_cast<unsigned long long>([&] {
                    std::uint64_t n = 0;
                    for (const auto& c : row.result.perClass)
                        n += c.deadlineFailed;
                    return n;
                }()),
                static_cast<unsigned long long>([&] {
                    std::uint64_t n = 0;
                    for (const auto& c : row.result.perClass)
                        n += c.demoted;
                    return n;
                }()));
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        const auto& agg = row.result.classAggregates[c];
        const auto& out = row.result.perClass[c];
        std::printf("    %-12s n=%-4zu done=%-4zu mean_ttft=%7.3f "
                    "p99_ttft=%7.3f goodput=%.4f\n",
                    workload::sloClassName(static_cast<SloClass>(c)),
                    agg.numRequests, agg.numFinished, agg.meanTtft,
                    agg.p99Ttft,
                    row.mode == Mode::ClassesOff ? row.goodput
                                                 : out.goodputFraction);
    }
    std::fflush(stdout);
}

void
jsonClassRows(std::ofstream& json, const ModeRow& row)
{
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        const auto& agg = row.result.classAggregates[c];
        const auto& out = row.result.perClass[c];
        json << "      \"" << workload::sloClassName(
                                  static_cast<SloClass>(c))
             << "\": {\"n\": " << agg.numRequests
             << ", \"finished\": " << agg.numFinished
             << ", \"mean_ttft\": " << bench::jsonNumber(agg.meanTtft)
             << ", \"p99_ttft\": " << bench::jsonNumber(agg.p99Ttft)
             << ", \"mean_qoe\": " << bench::jsonNumber(agg.meanQoe)
             << ", \"shed\": " << out.shed
             << ", \"deadline_failed\": " << out.deadlineFailed
             << ", \"demoted\": " << out.demoted << ", \"goodput\": "
             << bench::jsonNumber(out.goodputFraction) << "}"
             << (c + 1 < workload::kNumSloClasses ? "," : "") << "\n";
    }
}

} // namespace

int
main(int argc, char** argv)
try {
    std::string json_path = "BENCH_slo_classes.json";
    int num_requests = 1200;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
            num_requests = std::atoi(argv[++i]);
        else
            json_path = argv[i];
    }
    setQuiet(true);

    bench::header("slo-classes",
                  "class-aware serving under an overload storm");
    auto trace = stormTrace(num_requests);
    std::printf("trace: %s\n\n", trace.describe().c_str());

    std::vector<ModeRow> rows;
    for (Mode mode : {Mode::ClassesOff, Mode::PriorityOnly, Mode::Full}) {
        rows.push_back(runMode(mode, trace));
        print(rows.back());
    }

    const auto& full =
        rows[2].result
            .classAggregates[workload::sloClassIndex(
                SloClass::Interactive)];
    const auto& off =
        rows[0].result
            .classAggregates[workload::sloClassIndex(
                SloClass::Interactive)];
    std::printf("\ninteractive p99 TTFT: classes-off %.3fs -> full "
                "%.3fs\n",
                off.p99Ttft, full.p99Ttft);

    std::ofstream json(json_path);
    if (!json)
        fatal("cannot open '" + json_path + "' for writing");
    json << "{\n  \"bench\": \"bench_slo_classes\",\n"
         << "  " << bench::jsonMeta() << ",\n"
         << "  \"trace\": \"" << trace.describe() << "\",\n"
         << "  \"modes\": {\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& row = rows[i];
        json << "    \"" << modeName(row.mode) << "\": {\n"
             << "      \"goodput\": " << bench::jsonNumber(row.goodput)
             << ",\n      \"wall_seconds\": "
             << bench::jsonNumber(row.wallSeconds)
             << ",\n      \"shed\": " << row.result.numShed
             << ",\n      \"terminal_failures\": "
             << row.result.numTerminalFailures << ",\n";
        jsonClassRows(json, row);
        json << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  }\n}\n";
    json.close();
    std::printf("\nJSON written to %s\n", json_path.c_str());
    return 0;
} catch (const pascal::FatalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
