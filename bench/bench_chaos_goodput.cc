/**
 * @file
 * Goodput under faults: seeded chaos runs across the main policies.
 *
 * For each policy (FCFS / RR / PASCAL) and each fault seed, the bench
 * replays the same arrival trace on a 4-instance cluster with an
 * aggressive fault schedule (crashes + MTTR recovery, planned
 * decommissions with a drain grace window, transient straggler
 * windows, and lossy KV-transfer links) and reports the failure
 * accounting: goodput fraction, crash/drain/straggler counts, retry
 * and shed totals, and terminal failures. A fault-free baseline row
 * per policy anchors the goodput delta.
 *
 * Output: human table + JSON (argv[1], default
 * BENCH_chaos_goodput.json) with the provenance `meta` block and, per
 * row, the full stat-registry dump (the cluster.fault.* counters ride
 * along generically). The nightly chaos job runs this under
 * ASan/UBSan over several seeds and uploads the JSON artifact;
 * --check-invariants makes the process exit nonzero if any run leaks
 * a request (neither finished nor terminally failed) or breaks the
 * per-class outcome totality (submitted == completed + shed +
 * deadline_failed + retry_failed for every SLO class). --trace-out
 * FILE additionally writes one traced chaos run's Chrome trace-event
 * JSON (the fault/retry categories) for ci/validate_trace.py.
 * --classes enables the SLO-class subsystem (the trace is always
 * class-annotated; without the flag the annotation is dormant and the
 * per-class columns stay zero).
 */

#include <array>
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
using cluster::SystemConfig;

struct ChaosRow
{
    std::string policy;
    std::uint64_t faultSeed = 0; //!< 0 marks the fault-free baseline.
    double goodput = 1.0;
    std::uint64_t crashes = 0;
    std::uint64_t drains = 0;
    std::uint64_t stragglerWindows = 0;
    std::uint64_t linkFailures = 0;
    std::uint64_t retries = 0;
    std::uint64_t shed = 0;
    std::uint64_t terminalFailures = 0;
    double meanTtft = 0.0;
    double p99Ttft = 0.0;
    bool invariantsOk = true;
    std::array<cluster::RunResult::ClassOutcome,
               workload::kNumSloClasses>
        perClass{};
    obs::StatDump stats;
};

workload::Trace
chaosTrace(int n)
{
    Rng rng(7);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 32, 256};
    profile.reasoning = {200.0, 0.7, 32, 800};
    profile.answering = {80.0, 0.6, 16, 350};
    auto trace = workload::generateTrace(profile, n, 24.0, rng);
    // Dormant unless --classes: annotation alone never perturbs a run.
    workload::assignSloClasses(trace);
    return trace;
}

SystemConfig
chaosConfig(const bench::PolicyUnderTest& policy,
            std::uint64_t fault_seed, bool traced, bool classes_on)
{
    SystemConfig cfg = bench::clusterConfig(policy, 4);
    cfg.gpuKvCapacityTokens = 32768;
    cfg.sloClasses.enabled = classes_on;
    if (traced) {
        cfg.telemetry.traceEnabled = true;
        cfg.telemetry.traceCapacity = 1u << 14;
    }
    if (fault_seed == 0)
        return cfg; // Fault-free baseline row.
    cfg.fault.enabled = true;
    cfg.fault.seed = fault_seed;
    cfg.fault.crashRate = 0.02;
    cfg.fault.mttr = 8.0;
    cfg.fault.decommissionRate = 0.005;
    cfg.fault.drainGrace = 5.0;
    cfg.fault.stragglerRate = 0.02;
    cfg.fault.stragglerFactor = 3.0;
    cfg.fault.stragglerDuration = 6.0;
    cfg.fault.linkFailureProb = 0.1;
    cfg.fault.retryBudget = 4;
    cfg.fault.backoffBase = 0.25;
    cfg.fault.backoffCap = 4.0;
    return cfg;
}

ChaosRow
runOne(const bench::PolicyUnderTest& policy, std::uint64_t fault_seed,
       const workload::Trace& trace, bool classes_on,
       bool traced = false, std::string* trace_json = nullptr)
{
    SystemConfig cfg =
        chaosConfig(policy, fault_seed, traced, classes_on);
    RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();

    ChaosRow row;
    row.policy = policy.label;
    row.faultSeed = fault_seed;
    row.goodput = result.goodputFraction;
    row.crashes = result.numCrashes;
    auto counter = [&](const char* name) {
        const obs::StatValue* s = obs::findStat(result.statsDump, name);
        if (s == nullptr)
            fatal(std::string("bench_chaos_goodput: no stat ") + name);
        return static_cast<std::uint64_t>(s->value);
    };
    row.drains = counter("cluster.fault.drains");
    row.stragglerWindows = counter("cluster.fault.straggler_windows");
    row.linkFailures = counter("cluster.fault.link_failures");
    row.retries = result.numRetries;
    row.shed = result.numShed;
    row.terminalFailures = result.numTerminalFailures;
    row.meanTtft = result.aggregate.meanTtft;
    row.p99Ttft = result.aggregate.p99Ttft;
    row.stats = result.statsDump;

    // The chaos invariant: every submitted request is accounted —
    // finished, or terminal with a reason — and nothing leaks KV.
    row.invariantsOk =
        result.numUnfinished ==
        static_cast<std::size_t>(result.numTerminalFailures);
    for (const auto& inst : ctx.cluster().getInstances()) {
        if (inst->pool().numTracked() != 0 || inst->pool().gpuUsed() != 0)
            row.invariantsOk = false;
    }
    // Per-class totality: every class's submissions land in exactly
    // one outcome bucket (the run drained, so nothing is live).
    row.perClass = result.perClass;
    std::uint64_t class_submitted = 0;
    for (const auto& out : row.perClass) {
        if (out.submitted != out.completed + out.shed +
                                 out.deadlineFailed + out.retryFailed)
            row.invariantsOk = false;
        class_submitted += out.submitted;
    }
    if (classes_on && class_submitted != trace.size())
        row.invariantsOk = false;
    if (trace_json != nullptr)
        *trace_json = result.traceJson;
    return row;
}

void
print(const ChaosRow& r)
{
    std::printf("%-8s seed=%-3llu goodput=%.4f crashes=%-3llu "
                "drains=%-2llu stragglers=%-2llu linkfail=%-2llu "
                "retries=%-3llu shed=%-3llu terminal=%-3llu %s\n",
                r.policy.c_str(),
                static_cast<unsigned long long>(r.faultSeed), r.goodput,
                static_cast<unsigned long long>(r.crashes),
                static_cast<unsigned long long>(r.drains),
                static_cast<unsigned long long>(r.stragglerWindows),
                static_cast<unsigned long long>(r.linkFailures),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.terminalFailures),
                r.invariantsOk ? "" : "INVARIANT-VIOLATION");
    std::printf("         goodput/class:");
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        std::printf(" %s=%.4f",
                    workload::sloClassName(
                        static_cast<workload::SloClass>(c)),
                    r.perClass[c].goodputFraction);
    }
    std::printf("\n");
    std::fflush(stdout);
}

void
jsonPerClass(std::ofstream& json, const ChaosRow& r)
{
    json << "\"per_class\": {";
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        const auto& out = r.perClass[c];
        json << "\"" << workload::sloClassName(
                            static_cast<workload::SloClass>(c))
             << "\": {\"submitted\": " << out.submitted
             << ", \"completed\": " << out.completed
             << ", \"shed\": " << out.shed
             << ", \"deadline_failed\": " << out.deadlineFailed
             << ", \"retry_failed\": " << out.retryFailed
             << ", \"demoted\": " << out.demoted << ", \"goodput\": "
             << bench::jsonNumber(out.goodputFraction) << "}"
             << (c + 1 < workload::kNumSloClasses ? ", " : "");
    }
    json << "}";
}

} // namespace

int
main(int argc, char** argv)
try {
    std::string json_path = "BENCH_chaos_goodput.json";
    std::string trace_out;
    bool check_invariants = false;
    bool classes_on = false;
    int num_seeds = 3;
    int num_requests = 800;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check-invariants") == 0)
            check_invariants = true;
        else if (std::strcmp(argv[i], "--classes") == 0)
            classes_on = true;
        else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc)
            num_seeds = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--requests") == 0 &&
                 i + 1 < argc)
            num_requests = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--trace-out") == 0 &&
                 i + 1 < argc)
            trace_out = argv[++i];
        else
            json_path = argv[i];
    }
    setQuiet(true);

    bench::header("chaos-goodput",
                  "goodput under seeded fault schedules");
    auto trace = chaosTrace(num_requests);
    std::printf("trace: %s\n", trace.describe().c_str());

    std::vector<ChaosRow> rows;
    bool all_ok = true;
    for (const auto& policy : bench::mainPolicies()) {
        // Seed 0: fault-free baseline (goodput 1.0 unless the trace
        // itself is infeasible); then the seeded chaos replays.
        for (int s = 0; s <= num_seeds; ++s) {
            ChaosRow row = runOne(policy,
                                  static_cast<std::uint64_t>(s), trace,
                                  classes_on);
            print(row);
            all_ok = all_ok && row.invariantsOk;
            rows.push_back(std::move(row));
        }
    }

    std::ofstream json(json_path);
    if (!json)
        fatal("cannot open '" + json_path + "' for writing");
    json << "{\n  \"bench\": \"bench_chaos_goodput\",\n"
         << "  " << bench::jsonMeta() << ",\n"
         << "  \"trace\": \"" << trace.describe() << "\",\n"
         << "  \"classes_enabled\": "
         << (classes_on ? "true" : "false") << ",\n"
         << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        json << "    {\"policy\": \"" << r.policy
             << "\", \"fault_seed\": " << r.faultSeed
             << ", \"goodput\": " << bench::jsonNumber(r.goodput)
             << ", \"crashes\": " << r.crashes
             << ", \"drains\": " << r.drains
             << ", \"straggler_windows\": " << r.stragglerWindows
             << ", \"link_failures\": " << r.linkFailures
             << ", \"retries\": " << r.retries
             << ", \"shed\": " << r.shed
             << ", \"terminal_failures\": " << r.terminalFailures
             << ", \"mean_ttft\": " << bench::jsonNumber(r.meanTtft)
             << ", \"p99_ttft\": " << bench::jsonNumber(r.p99Ttft)
             << ", \"invariants_ok\": "
             << (r.invariantsOk ? "true" : "false") << ",\n     ";
        jsonPerClass(json, r);
        json << ",\n     \"stats\": " << bench::jsonStats(r.stats)
             << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    json.close();
    std::printf("\nJSON written to %s\n", json_path.c_str());

    if (!trace_out.empty()) {
        // One traced chaos run (PASCAL, first chaos seed): the
        // fault/retry trace categories for ci/validate_trace.py.
        std::string trace_json;
        ChaosRow traced = runOne(bench::mainPolicies().back(), 1, trace,
                                 classes_on, true, &trace_json);
        all_ok = all_ok && traced.invariantsOk;
        std::ofstream out(trace_out);
        if (!out)
            fatal("cannot open '" + trace_out + "' for writing");
        out << trace_json;
        out.close();
        std::printf("trace artifact written to %s (%zu bytes)\n",
                    trace_out.c_str(), trace_json.size());
    }

    if (check_invariants && !all_ok) {
        std::fprintf(stderr,
                     "FAIL: a chaos run violated the accounting or "
                     "KV-leak invariants\n");
        return 1;
    }
    return 0;
} catch (const pascal::FatalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
