/**
 * @file
 * The benchmark's four workloads. A workload is a fixed number of
 * episodes; each episode is one simulator configuration plus one trace
 * generated from the workload seed and the episode index. The program
 * only ever sees the generated traces; the seed stays on the benchmark
 * side.
 *
 * Episodes exist because the QoE tails are seed-sensitive: pooling the
 * requests of several independent traces steadies p99 TTFT and the
 * SLO/goodput shares across seeds, whereas one longer trace would
 * change the workload (an overloaded backlog keeps growing, and the
 * profile predictor's cost is super-linear in trace length).
 *
 * Arrivals are open-loop Poisson schedules in virtual time, so a
 * workload whose rate exceeds the cluster's service rate builds a
 * backlog and the queueing shows up in the simulated TTFT.
 */

#ifndef PASCAL_PERFBENCH_WORKLOADS_HH
#define PASCAL_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/system_config.hh"
#include "src/workload/trace.hh"

namespace pascal
{
namespace perfbench
{

struct Workload
{
    std::string name;
    /** Requests per episode trace; fixed per workload so host cost and
     *  the QoE tails stay comparable across commits. */
    int numRequests = 0;
    int episodes = 1;

    cluster::SystemConfig config(std::uint64_t seed, int episode) const;
    /** Request ids are unique across the episodes of one workload. */
    workload::Trace trace(std::uint64_t seed, int episode) const;
};

/** All workloads, in BENCHMARK.json order. */
const std::vector<Workload>& workloads();

/** The workload named @p name, or nullptr. */
const Workload* findWorkload(const std::string& name);

} // namespace perfbench
} // namespace pascal

#endif // PASCAL_PERFBENCH_WORKLOADS_HH
