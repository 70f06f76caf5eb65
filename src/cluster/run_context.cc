#include "src/cluster/run_context.hh"

#include <string>

#include "src/common/log.hh"
#include "src/qoe/metrics.hh"

namespace pascal
{
namespace cluster
{

namespace
{

/** A RunResult counter and the registered stat it is a view of. */
template <typename Owner>
struct CounterView
{
    const char* stat;
    std::uint64_t Owner::*field;
};

/** The one name table behind RunResult's counters: the stat registry
 *  holds each count, the result only copies it out of the dump. */
constexpr CounterView<RunResult> kRunCounters[] = {
    {"cluster.migrations", &RunResult::totalMigrations},
    {"cluster.fault.crashes", &RunResult::numCrashes},
    {"cluster.fault.retries", &RunResult::numRetries},
    {"cluster.fault.shed", &RunResult::numShed},
    {"cluster.fault.terminal_failures", &RunResult::numTerminalFailures},
};

/** Per class, under "cluster.slo.<class>.". */
constexpr CounterView<RunResult::ClassOutcome> kClassCounters[] = {
    {"submitted", &RunResult::ClassOutcome::submitted},
    {"completed", &RunResult::ClassOutcome::completed},
    {"shed", &RunResult::ClassOutcome::shed},
    {"deadline_failed", &RunResult::ClassOutcome::deadlineFailed},
    {"retry_failed", &RunResult::ClassOutcome::retryFailed},
    {"demoted", &RunResult::ClassOutcome::demoted},
};

std::uint64_t
counterOf(const obs::StatDump& dump, const std::string& name)
{
    const obs::StatValue* s = obs::findStat(dump, name);
    if (s == nullptr)
        panic("RunResult: stat '" + name + "' is not registered");
    return static_cast<std::uint64_t>(s->value);
}

} // namespace

RunContext::RunContext(const SystemConfig& cfg) : cfg(cfg)
{
    this->cfg.validate();
    clusterPtr = std::make_unique<Cluster>(sim, this->cfg);
}

void
RunContext::submit(const workload::Trace& trace)
{
    clusterPtr->submitTrace(trace);
}

std::uint64_t
RunContext::run(Time until)
{
    if (until < 0.0)
        until = cfg.maxSimTime;
    ranToHorizon = until >= cfg.maxSimTime;
    return sim.run(until);
}

RunResult
RunContext::result() const
{
    if (ranToHorizon && sim.pendingEvents() > 0) {
        warn("simulation horizon (" + std::to_string(cfg.maxSimTime) +
             " s) hit with events pending");
    }

    RunResult result;
    if (clusterPtr->streamingEnabled()) {
        // Streaming mode: no per-request rows exist to collect — the
        // aggregate comes from the bounded-memory sketches.
        result.streaming = clusterPtr->finalStreamingMetrics();
        result.aggregate = result.streaming->aggregate();
    } else {
        result.perRequest = clusterPtr->collectMetrics();
        result.aggregate = qoe::aggregateMetrics(result.perRequest);
    }
    result.statsDump = clusterPtr->dumpStats();
    result.traceJson = clusterPtr->traceJson();
    result.peakGpuKvTokens = clusterPtr->maxPeakGpuKv();
    result.kvCapacityTokens = clusterPtr->kvCapacityTokens();
    result.numUnfinished = clusterPtr->numUnfinished();
    for (const auto& row : result.perRequest) {
        result.kvTransferLatencies.insert(result.kvTransferLatencies.end(),
                                          row.kvTransferLatencies.begin(),
                                          row.kvTransferLatencies.end());
    }
    result.schedulerName = cfg.schedulerName();
    result.placementName = cfg.placementName();
    result.predictorName = cfg.predictorName();
    for (const auto& v : kRunCounters)
        result.*v.field = counterOf(result.statsDump, v.stat);
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        const std::string prefix =
            std::string("cluster.slo.") +
            workload::sloClassName(static_cast<workload::SloClass>(c)) +
            ".";
        RunResult::ClassOutcome& out = result.perClass[c];
        for (const auto& v : kClassCounters)
            out.*v.field = counterOf(result.statsDump, prefix + v.stat);
        out.goodputFraction =
            out.submitted == 0
                ? 1.0
                : static_cast<double>(out.completed) /
                      static_cast<double>(out.submitted);
    }
    if (!result.perRequest.empty())
        result.classAggregates = qoe::aggregateByClass(result.perRequest);
    result.goodputFraction =
        result.aggregate.numRequests == 0
            ? 1.0
            : static_cast<double>(result.aggregate.numFinished) /
                  static_cast<double>(result.aggregate.numRequests);

    // Unfinished beyond the accounted terminal failures means the
    // trace was infeasible or the horizon cut the run short; accounted
    // failures are an expected fault-layer outcome, not a warning.
    if (ranToHorizon &&
        result.numUnfinished > result.numTerminalFailures) {
        warn(std::to_string(result.numUnfinished -
                            result.numTerminalFailures) +
             " requests did not finish (infeasible trace or horizon)");
    }
    return result;
}

RunResult
RunContext::execute(const SystemConfig& cfg,
                    const workload::Trace& trace)
{
    RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    return ctx.result();
}

} // namespace cluster
} // namespace pascal
