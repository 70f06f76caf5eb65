/**
 * @file
 * Regenerates Fig. 15: effectiveness of adaptive migration.
 * PASCAL(NonAdaptive) always follows Algorithm 2's choice at phase
 * transitions, even into memory-starved instances.
 *
 * Expected shape (paper): similar TTFT distributions, but the
 * NonAdaptive SLO violation rate rises sharply with load (7.45 % vs
 * 0.69 % at high rate) and median/tail end-to-end latency degrade
 * (+20.1 % median, +9.7 % tail).
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using namespace pascal::bench;

struct Outcome
{
    double meanTtft = 0.0;
    double p50Ttft = 0.0;
    double p99Ttft = 0.0;
    double sloViolation = 0.0;
    double meanE2e = 0.0;
    double p50E2e = 0.0;
    double p99E2e = 0.0;
    int migrations = 0;
};

Outcome
runOnce(cluster::PlacementType placement, const workload::Trace& trace)
{
    PolicyUnderTest policy{"", cluster::SchedulerType::Pascal,
                           placement};
    cluster::ServingSystem system(clusterConfig(policy));
    auto result = system.run(trace);

    Outcome o;
    o.meanTtft = result.aggregate.meanTtft;
    o.p50Ttft = result.aggregate.p50Ttft;
    o.p99Ttft = result.aggregate.p99Ttft;
    o.sloViolation = result.aggregate.sloViolationRate;
    o.meanE2e = result.aggregate.meanE2eLatency;
    o.p50E2e = result.aggregate.p50E2eLatency;
    o.p99E2e = result.aggregate.p99E2eLatency;
    o.migrations = result.aggregate.totalMigrations;
    return o;
}

} // namespace

int
main()
{
    header("Fig. 15", "PASCAL vs PASCAL(NonAdaptive) on AlpacaEval "
                      "(adaptive-migration ablation)");
    auto bench = alpacaBench();

    struct RateCase
    {
        const char* label;
        double rate;
    };
    std::vector<RateCase> rates = {{"low", bench.lowRate},
                                   {"medium", bench.mediumRate},
                                   {"high", bench.highRate}};

    std::printf("(a)+(b) TTFT distribution and SLO violations\n");
    std::printf("%-8s %-14s %9s %9s %9s %8s %10s\n", "rate", "variant",
                "mean-TTFT", "p50-TTFT", "p99-TTFT", "SLO-vio",
                "migrations");
    rule();

    Outcome full_high, nonadaptive_high;
    for (const auto& rate_case : rates) {
        auto trace = makeTrace(bench, rate_case.rate, 1515);
        auto full = runOnce(cluster::PlacementType::Pascal, trace);
        auto always =
            runOnce(cluster::PlacementType::PascalNonAdaptive, trace);
        if (std::string(rate_case.label) == "high") {
            full_high = full;
            nonadaptive_high = always;
        }

        auto print_row = [&](const char* name, const Outcome& o) {
            std::printf("%-8s %-14s %9.2f %9.2f %9.2f %7.2f%% %10d\n",
                        rate_case.label, name, o.meanTtft, o.p50Ttft,
                        o.p99Ttft, 100.0 * o.sloViolation,
                        o.migrations);
        };
        print_row("PASCAL", full);
        print_row("NonAdaptive", always);
        rule();
    }

    std::printf("\n(c) end-to-end request latency at high rate\n");
    std::printf("%-14s %10s %10s %10s\n", "variant", "mean(s)",
                "p50(s)", "p99(s)");
    std::printf("%-14s %10.2f %10.2f %10.2f\n", "PASCAL",
                full_high.meanE2e, full_high.p50E2e, full_high.p99E2e);
    std::printf("%-14s %10.2f %10.2f %10.2f\n", "NonAdaptive",
                nonadaptive_high.meanE2e, nonadaptive_high.p50E2e,
                nonadaptive_high.p99E2e);
    if (full_high.p50E2e > 0.0 && full_high.p99E2e > 0.0) {
        std::printf("NonAdaptive vs PASCAL: median %+.1f%%, tail "
                    "%+.1f%% (paper: +20.1%% / +9.7%%)\n",
                    100.0 * (nonadaptive_high.p50E2e / full_high.p50E2e -
                             1.0),
                    100.0 * (nonadaptive_high.p99E2e / full_high.p99E2e -
                             1.0));
    }
    return 0;
}
