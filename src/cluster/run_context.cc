#include "src/cluster/run_context.hh"

#include <string>

#include "src/common/log.hh"
#include "src/qoe/metrics.hh"

namespace pascal
{
namespace cluster
{

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
    result.totalIterations = clusterPtr->totalIterations();
    result.numUnfinished = clusterPtr->numUnfinished();
    result.totalMigrations = clusterPtr->totalMigrations();
    result.kvTransferLatencies = clusterPtr->allKvTransferLatencies();
    result.schedulerName = cfg.schedulerName();
    result.placementName = cfg.placementName();
    result.predictorName = cfg.predictorName();
    result.numCrashes = clusterPtr->numCrashes();
    result.numRetries = clusterPtr->numRetries();
    result.numShed = clusterPtr->numShed();
    result.numTerminalFailures = clusterPtr->numTerminalFailures();
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        auto cls = static_cast<workload::SloClass>(c);
        RunResult::ClassOutcome& out = result.perClass[c];
        out.submitted = clusterPtr->numClassSubmitted(cls);
        out.completed = clusterPtr->numClassCompleted(cls);
        out.shed = clusterPtr->numClassShed(cls);
        out.deadlineFailed = clusterPtr->numClassDeadlineFailed(cls);
        out.retryFailed = clusterPtr->numClassRetryFailed(cls);
        out.demoted = clusterPtr->numClassDemoted(cls);
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
