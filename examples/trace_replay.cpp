/**
 * @file
 * Trace replay: run any CSV trace through a configurable deployment
 * and write per-request metrics back out as CSV — the integration
 * surface for downstream users with their own traces.
 *
 * Usage:
 *   trace_replay [<trace.csv> <out_metrics.csv>]
 *                [fcfs|rr|pascal|srpt|pascal-spec|all] [instances]
 *                [--json <path>] [--trace-out <path>]
 *
 * Every replay goes through SweepRunner. A single policy (the
 * default: pascal) writes exactly <out_metrics.csv>; with `all`, the
 * policies are swept in parallel and each writes
 * `<out_metrics>.<policy>.csv` plus a comparison summary. The
 * speculative policies (srpt, pascal-spec) run under the oracle
 * predictor. `--json <path>` additionally emits the per-policy metric
 * table as JSON, so replay results land next to the BENCH_*.json
 * trend files. With no positional arguments, a demonstration trace is
 * generated, written to a temp file, and swept across all policies,
 * so the example is runnable out of the box.
 *
 * `--trace-out <path>` records a Perfetto timeline per policy
 * (`<path>.<policy>` when sweeping — drop it on ui.perfetto.dev).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "examples/example_cli.hh"
#include "src/cluster/sweep_runner.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"

namespace
{

using namespace pascal;
using examples::PolicyChoice;

void
writeMetricsCsv(const std::string& path,
                const cluster::RunResult& result)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '" + path + "' for writing");
    out << "id,dataset,arrival,prompt,reasoning,answer,ttft,ttfat,"
           "reasoning_latency,e2e_latency,qoe,slo_violated,"
           "migrations\n";
    for (const auto& m : result.perRequest) {
        out << m.id << ',' << m.dataset << ',' << m.arrival << ','
            << m.promptTokens << ',' << m.reasoningTokens << ','
            << m.answerTokens << ',' << m.ttft << ',' << m.ttfat << ','
            << m.reasoningLatency << ',' << m.e2eLatency << ','
            << m.qoe << ',' << (m.sloViolated ? 1 : 0) << ','
            << m.migrationCount << '\n';
    }
}

/** Escape a string for embedding in a JSON literal (paths and labels
 *  are user-supplied and may contain quotes or backslashes). */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** The per-policy comparison table as a JSON document. */
void
writeSummaryJson(const std::string& path, const std::string& trace_path,
                 int instances,
                 const std::vector<cluster::SweepOutcome>& outcomes)
{
    std::ofstream json(path);
    if (!json)
        fatal("cannot open '" + path + "' for writing");
    json << "{\n  \"trace\": \"" << jsonEscape(trace_path)
         << "\",\n  \"instances\": " << instances
         << ",\n  \"policies\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto& o = outcomes[i];
        const auto& agg = o.result.aggregate;
        json << "    {\"label\": \"" << jsonEscape(o.label)
             << "\", \"scheduler\": \""
             << o.result.schedulerName << "\", \"placement\": \""
             << o.result.placementName << "\", \"predictor\": \""
             << o.result.predictorName
             << "\", \"mean_ttft\": " << agg.meanTtft
             << ", \"p50_ttft\": " << agg.p50Ttft
             << ", \"p99_ttft\": " << agg.p99Ttft
             << ", \"slo_violation_rate\": " << agg.sloViolationRate
             << ", \"throughput_tokens_per_sec\": "
             << agg.throughputTokensPerSec
             << ", \"mean_answering_latency\": "
             << agg.meanAnsweringLatency
             << ", \"migrations\": " << agg.totalMigrations
             << ", \"unfinished\": " << o.result.numUnfinished << "}"
             << (i + 1 < outcomes.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
}

/** "<base>.<policy>.csv" for sweeps, plain base for single runs. */
std::string
outPathFor(const std::string& base, const std::string& policy,
           bool sweeping)
{
    if (!sweeping)
        return base;
    std::string stem = base;
    const std::string ext = ".csv";
    if (stem.size() > ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0)
        stem.resize(stem.size() - ext.size());
    return stem + "." + policy + ext;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string trace_path;
    std::string out_path = "trace_replay_metrics.csv";
    std::string json_path;
    std::vector<PolicyChoice> policies = examples::allPolicies();
    int instances = 8;

    try {
        const std::string trace_out =
            examples::stripTraceOutFlag(argc, argv);

        // Split --json off first; the rest stays positional for
        // backward compatibility.
        std::vector<const char*> positional;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--json") == 0) {
                if (i + 1 >= argc)
                    fatal("--json needs a path argument");
                json_path = argv[++i];
            } else {
                positional.push_back(argv[i]);
            }
        }

        if (positional.size() >= 2) {
            trace_path = positional[0];
            out_path = positional[1];
            // Explicit-path mode keeps the original contract: without
            // a policy argument it runs pascal once and writes exactly
            // <out_metrics.csv>; `all` opts into the parallel sweep.
            policies = examples::parsePolicies(
                positional.size() >= 3 ? positional[2] : "pascal");
            if (positional.size() >= 4) {
                instances = examples::parsePositiveInt(positional[3],
                                                       "instances");
            }
        } else if (positional.empty()) {
            // Demo mode: synthesize and persist a trace first.
            trace_path = "trace_replay_demo.csv";
            Rng rng(31);
            auto demo = workload::generateTrace(
                workload::DatasetProfile::arenaHard(), 300, 8.0, rng);
            demo.toCsv(trace_path);
            std::printf("demo mode: wrote %zu requests to %s\n",
                        demo.size(), trace_path.c_str());
        } else {
            fatal("usage: trace_replay [<trace.csv> <out.csv>] "
                  "[policy] [instances] [--json <path>]");
        }

        cluster::SweepRunner runner;
        auto trace_index =
            runner.addTrace(workload::Trace::fromCsv(trace_path));
        const std::size_t num_requests =
            runner.trace(trace_index).size();

        for (const auto& policy : policies) {
            auto cfg = examples::configFor(policy, instances);
            cfg.telemetry.traceEnabled = !trace_out.empty();
            runner.add({policy.name, cfg, trace_index, 0});
        }

        const bool sweeping = policies.size() > 1;
        auto sweep = runner.run();

        std::printf("replayed %zu requests on %d instances under %zu "
                    "polic%s\n",
                    num_requests, instances, policies.size(),
                    policies.size() == 1 ? "y" : "ies");
        for (const auto& outcome : sweep.outcomes) {
            const auto path =
                outPathFor(out_path, outcome.label, sweeping);
            writeMetricsCsv(path, outcome.result);
            const auto& agg = outcome.result.aggregate;
            std::printf("%-12s mean TTFT %6.2fs  p99 TTFT %6.2fs  "
                        "SLO-vio %5.2f%%  throughput %6.0f tok/s  -> "
                        "%s\n",
                        outcome.label.c_str(), agg.meanTtft,
                        agg.p99Ttft, 100.0 * agg.sloViolationRate,
                        agg.throughputTokensPerSec, path.c_str());
        }

        if (!json_path.empty()) {
            writeSummaryJson(json_path, trace_path, instances,
                             sweep.outcomes);
            std::printf("summary JSON -> %s\n", json_path.c_str());
        }

        if (!trace_out.empty()) {
            for (const auto& outcome : sweep.outcomes) {
                const std::string path =
                    sweeping ? trace_out + "." + outcome.label
                             : trace_out;
                examples::writeTraceFile(path,
                                         outcome.result.traceJson);
                std::printf("Perfetto trace -> %s\n", path.c_str());
            }
        }

        if (sweeping) {
            auto* best = sweep.bestBy([](const cluster::RunResult& r) {
                return r.aggregate.p99Ttft;
            });
            std::printf("best p99 TTFT: %s\n", best->label.c_str());
        }
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
