/**
 * @file
 * Chat-serving scenario: the workload the paper's introduction
 * motivates. An AlpacaEval-style request stream hits an 8-instance
 * cluster at increasing load; the example compares every registered
 * policy — including the speculative SRPT and PASCAL-Spec deployments
 * under the oracle predictor — side by side on the user-experience
 * metrics (TTFT, QoE/SLO) and on throughput.
 *
 * Run: ./build/examples/chat_serving [requests] [rate_req_per_s]
 */

#include <cstdio>

#include "examples/example_cli.hh"
#include "src/cluster/serving_system.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"

int
main(int argc, char** argv)
{
    using namespace pascal;

    int n = 1200;
    double rate = 30.0;
    try {
        if (argc > 1)
            n = examples::parsePositiveInt(argv[1], "requests");
        if (argc > 2)
            rate = examples::parsePositiveReal(argv[2], "rate");
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\nusage: %s [requests] [rate]\n",
                     e.what(), argv[0]);
        return 1;
    }

    Rng rng(7);
    auto trace = workload::generateTrace(
        workload::DatasetProfile::alpacaEval(), n, rate, rng);

    std::printf("chat serving: %d AlpacaEval-style requests at %.1f "
                "req/s on 8 instances\n\n",
                n, rate);
    std::printf("%-12s %10s %10s %10s %9s %11s %10s\n", "policy",
                "mean TTFT", "p50 TTFT", "p99 TTFT", "SLO-vio",
                "throughput", "migrations");

    for (const auto& p : examples::allPolicies()) {
        cluster::ServingSystem system(examples::configFor(p, 8));
        auto result = system.run(trace);

        std::printf("%-12s %9.2fs %9.2fs %9.2fs %8.2f%% %7.0f tok/s "
                    "%10llu\n",
                    p.name.c_str(), result.aggregate.meanTtft,
                    result.aggregate.p50Ttft, result.aggregate.p99Ttft,
                    100.0 * result.aggregate.sloViolationRate,
                    result.aggregate.throughputTokensPerSec,
                    static_cast<unsigned long long>(
                        result.aggregate.totalMigrations));
    }

    std::printf("\nReading the table: PASCAL should hold the lowest "
                "TTFT among the reactive policies; FCFS degrades "
                "first as the arrival rate approaches the cluster's "
                "KV-memory saturation point (~34 req/s here). The "
                "oracle-fed speculative rows bound what length "
                "prediction can add on top.\n");
    return 0;
}
