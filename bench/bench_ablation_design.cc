/**
 * @file
 * Ablation harness for the design choices DESIGN.md calls out. Each
 * section sweeps one knob over the stressed AlpacaEval workload while
 * holding everything else at the paper's defaults:
 *
 *   1. token quantum (paper: 500)
 *   2. demotion threshold (paper: 5000)
 *   3. answering-memory reserve (library extension, default 0)
 *   4. paged-KV block size (vLLM default 16 vs exact accounting)
 *   5. monitor buffer margin (t_i early-warning, default 0)
 */

#include <cstdio>

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using namespace pascal::bench;

struct Outcome
{
    double p99Ttft = 0.0;
    double meanTtft = 0.0;
    double sloViolation = 0.0;
    double throughput = 0.0;
    int migrations = 0;
};

Outcome
run(const workload::Trace& trace, cluster::SystemConfig cfg)
{
    cluster::ServingSystem system(cfg);
    auto result = system.run(trace);
    return {result.aggregate.p99Ttft, result.aggregate.meanTtft,
            100.0 * result.aggregate.sloViolationRate,
            result.aggregate.throughputTokensPerSec,
            result.aggregate.totalMigrations};
}

cluster::SystemConfig
pascalConfig()
{
    return cluster::SystemConfig::pascal(8);
}

void
printRow(const char* label, const Outcome& o)
{
    std::printf("%14s %10.1f %10.1f %8.2f%% %9.0f %8d\n", label,
                o.meanTtft, o.p99Ttft, o.sloViolation, o.throughput,
                o.migrations);
}

void
printHeader()
{
    std::printf("%14s %10s %10s %9s %9s %8s\n", "value", "mean-TTFT",
                "p99-TTFT", "SLO-vio", "tok/s", "migr");
}

} // namespace

int
main()
{
    header("Ablations", "PASCAL design-choice sweeps on stressed "
                        "AlpacaEval (34 req/s)");

    auto bench = alpacaBench();
    auto trace = makeTrace(bench, bench.highRate, 4242);

    std::printf("\n1) token quantum (paper default 500)\n");
    printHeader();
    for (TokenCount q : {100, 250, 500, 1000, 2000}) {
        auto cfg = pascalConfig();
        cfg.limits.quantum = q;
        printRow(std::to_string(q).c_str(), run(trace, cfg));
    }

    std::printf("\n2) demotion threshold (paper default 5000)\n");
    printHeader();
    for (TokenCount d : {1000, 2500, 5000, 10000, 1000000}) {
        auto cfg = pascalConfig();
        cfg.limits.demoteThresholdTokens = d;
        printRow(std::to_string(d).c_str(), run(trace, cfg));
    }

    std::printf("\n3) answering-memory reserve (extension; 0 = "
                "paper)\n");
    printHeader();
    for (double r : {0.0, 0.05, 0.1, 0.2, 0.3}) {
        auto cfg = pascalConfig();
        cfg.limits.answeringReserveFraction = r;
        char label[16];
        std::snprintf(label, sizeof(label), "%.0f%%", 100.0 * r);
        printRow(label, run(trace, cfg));
    }

    std::printf("\n4) paged-KV block size (vLLM default 16)\n");
    printHeader();
    for (TokenCount b : {1, 16, 64, 256}) {
        auto cfg = pascalConfig();
        cfg.kvBlockSizeTokens = b;
        printRow(std::to_string(b).c_str(), run(trace, cfg));
    }

    std::printf("\n5) monitor buffer margin (t_i early warning; "
                "default 0)\n");
    printHeader();
    for (TokenCount m : {0, 4, 16, 64}) {
        auto cfg = pascalConfig();
        cfg.slo.monitorBufferMarginTokens = m;
        printRow(std::to_string(m).c_str(), run(trace, cfg));
    }

    std::printf("\n6) prefill policy (vLLM prefill-priority vs "
                "Sarathi-style chunked)\n");
    printHeader();
    for (bool chunked : {false, true}) {
        auto cfg = pascalConfig();
        cfg.limits.chunkedPrefill = chunked;
        printRow(chunked ? "chunked" : "priority", run(trace, cfg));
    }

    std::printf("\nExpected: the paper defaults sit near the knee of "
                "sweeps 1-2; large blocks (4) waste KV and mildly "
                "raise pressure; aggressive margins (5) trigger "
                "migration churn; chunked prefill (6) removes decode "
                "stalls during admission bursts.\n");
    return 0;
}
