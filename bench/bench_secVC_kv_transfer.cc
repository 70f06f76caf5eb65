/**
 * @file
 * Regenerates Section V-C: KV cache transfer overhead. Multiple
 * instances migrating phase-transitioning requests into the same
 * target contend for its fabric ingress; the paper reports P99
 * transfer latencies of 0.14 s (AlpacaEval) and 0.25 s (Arena-Hard)
 * under high arrival rates — negligible against multi-second TTFTs.
 */

#include <cstdio>

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using namespace pascal::bench;

void
runDataset(const DatasetBench& bench, double paper_p99)
{
    auto trace = makeTrace(bench, bench.highRate, 1313);
    PolicyUnderTest pascal_policy{"PASCAL",
                                  cluster::SchedulerType::Pascal,
                                  cluster::PlacementType::Pascal};
    cluster::ServingSystem system(clusterConfig(pascal_policy));
    auto result = system.run(trace);

    auto& transfers = result.kvTransferLatencies;
    std::printf("\n=== %s, high rate ===\n",
                bench.profile.name.c_str());
    std::printf("migrations            : %llu (%.1f%% of requests)\n",
                static_cast<unsigned long long>(
                    result.aggregate.totalMigrations),
                100.0 *
                    static_cast<double>(result.aggregate.totalMigrations) /
                    static_cast<double>(result.aggregate.numFinished));
    std::printf("KV transfer P50 / P99 : %.3f / %.3f s "
                "(paper P99: %.2f s)\n",
                stats::percentile(transfers, 50.0),
                stats::percentile(transfers, 99.0), paper_p99);
    std::printf("max transfer          : %.3f s\n",
                stats::percentile(transfers, 100.0));
    std::printf("mean TTFT             : %.2f s -> transfer overhead "
                "is %.2f%% of it\n",
                result.aggregate.meanTtft,
                100.0 * stats::percentile(transfers, 99.0) /
                    result.aggregate.meanTtft);
}

} // namespace

int
main()
{
    header("Sec. V-C", "KV cache transfer overhead under migration "
                       "contention (PASCAL, high rate)");
    runDataset(alpacaBench(), 0.14);
    runDataset(arenaBench(), 0.25);
    std::printf("\nExpected: P99 transfer latency in the sub-second "
                "range, a negligible fraction of TTFT.\n");
    return 0;
}
