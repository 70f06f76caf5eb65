#include "src/cluster/serving_system.hh"

#include <cstdio>

#include "src/cluster/run_context.hh"

namespace pascal
{
namespace cluster
{

ServingSystem::ServingSystem(SystemConfig cfg) : cfg(std::move(cfg))
{
    this->cfg.validate();
}

RunResult
ServingSystem::run(const workload::Trace& trace) const
{
    return RunContext::execute(cfg, trace);
}

namespace
{

/** Appends "key=value" lines to one string. */
class Lines
{
  public:
    void
    put(const std::string& key, double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        line(key, buf);
    }
    void
    put(const std::string& key, std::uint64_t v)
    {
        line(key, std::to_string(v));
    }
    void
    put(const std::string& key, int v)
    {
        line(key, std::to_string(v));
    }
    void
    put(const std::string& key, bool v)
    {
        line(key, v ? "1" : "0");
    }
    void
    put(const std::string& key, const std::vector<double>& v)
    {
        put(key + ".size", static_cast<std::uint64_t>(v.size()));
        for (std::size_t i = 0; i < v.size(); ++i)
            put(key + "." + std::to_string(i), v[i]);
    }
    void
    put(const std::string& key, const workload::PhaseBuckets& b)
    {
        put(key + ".executed", b.executed);
        put(key + ".blocked", b.blocked);
        put(key + ".preempted", b.preempted);
    }
    void
    line(const std::string& key, const std::string& value)
    {
        text += key;
        text += '=';
        text += value;
        text += '\n';
    }

    std::string text;
};

/** Stat entries that count fast-path work, not simulated behaviour:
 *  they differ between a run and its force twins. */
bool
workStat(const std::string& name)
{
    const std::string ns = "_ns";
    return name.find(".plan.") != std::string::npos ||
           (name.size() >= ns.size() &&
            name.compare(name.size() - ns.size(), ns.size(), ns) == 0);
}

} // namespace

std::string
canonicalText(const RunResult& r)
{
    Lines out;
    out.put("requests", static_cast<std::uint64_t>(r.perRequest.size()));
    for (const qoe::RequestMetrics& m : r.perRequest) {
        const std::string p = "req." + std::to_string(m.id) + ".";
        out.line(p + "dataset", m.dataset);
        out.put(p + "arrival", m.arrival);
        out.put(p + "prompt", static_cast<std::uint64_t>(m.promptTokens));
        out.put(p + "reasoning",
                static_cast<std::uint64_t>(m.reasoningTokens));
        out.put(p + "answer", static_cast<std::uint64_t>(m.answerTokens));
        out.put(p + "finished", m.finished);
        out.put(p + "failed", m.failed);
        out.put(p + "fail_reason", static_cast<int>(m.failReason));
        out.put(p + "slo_class", static_cast<int>(m.sloClass));
        out.put(p + "deadline_expired", m.deadlineExpired);
        out.put(p + "best_effort", m.bestEffort);
        out.put(p + "ttft", m.ttft);
        out.put(p + "ttfat", m.ttfat);
        out.put(p + "reasoning_latency", m.reasoningLatency);
        out.put(p + "e2e_latency", m.e2eLatency);
        out.put(p + "answering_latency", m.answeringLatency);
        out.put(p + "blocking_latency", m.blockingLatency);
        out.put(p + "queueing_delay", m.queueingDelay);
        out.put(p + "mean_tpot", m.meanTpot);
        out.put(p + "reasoning_buckets", m.reasoningBuckets);
        out.put(p + "answering_buckets", m.answeringBuckets);
        out.put(p + "qoe", m.qoe);
        out.put(p + "slo_violated", m.sloViolated);
        out.put(p + "migrations", m.migrationCount);
        out.put(p + "kv_transfer_latencies", m.kvTransferLatencies);
    }

    const qoe::AggregateMetrics& a = r.aggregate;
    out.put("agg.requests", static_cast<std::uint64_t>(a.numRequests));
    out.put("agg.finished", static_cast<std::uint64_t>(a.numFinished));
    out.put("agg.makespan", a.makespan);
    out.put("agg.throughput", a.throughputTokensPerSec);
    out.put("agg.mean_ttft", a.meanTtft);
    out.put("agg.p50_ttft", a.p50Ttft);
    out.put("agg.p99_ttft", a.p99Ttft);
    out.put("agg.max_ttft", a.maxTtft);
    out.put("agg.mean_qoe", a.meanQoe);
    out.put("agg.slo_violation_rate", a.sloViolationRate);
    out.put("agg.mean_e2e", a.meanE2eLatency);
    out.put("agg.p50_e2e", a.p50E2eLatency);
    out.put("agg.p99_e2e", a.p99E2eLatency);
    out.put("agg.mean_answering", a.meanAnsweringLatency);
    out.put("agg.p99_blocking", a.p99BlockingLatency);
    out.put("agg.p99_kv_transfer", a.p99KvTransferLatency);
    out.put("agg.migrations", a.totalMigrations);

    out.put("peak_gpu_kv", static_cast<std::uint64_t>(r.peakGpuKvTokens));
    out.put("kv_capacity", static_cast<std::uint64_t>(r.kvCapacityTokens));
    out.put("unfinished", static_cast<std::uint64_t>(r.numUnfinished));
    out.put("crashes", r.numCrashes);
    out.put("retries", r.numRetries);
    out.put("shed", r.numShed);
    out.put("terminal_failures", r.numTerminalFailures);
    out.put("goodput", r.goodputFraction);

    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        const std::string p =
            std::string("class.") +
            workload::sloClassName(static_cast<workload::SloClass>(c)) +
            ".";
        const RunResult::ClassOutcome& o = r.perClass[c];
        out.put(p + "submitted", o.submitted);
        out.put(p + "completed", o.completed);
        out.put(p + "shed", o.shed);
        out.put(p + "deadline_failed", o.deadlineFailed);
        out.put(p + "retry_failed", o.retryFailed);
        out.put(p + "demoted", o.demoted);
        out.put(p + "goodput", o.goodputFraction);
        const qoe::ClassAggregate& g = r.classAggregates[c];
        out.put(p + "requests", static_cast<std::uint64_t>(g.numRequests));
        out.put(p + "finished", static_cast<std::uint64_t>(g.numFinished));
        out.put(p + "mean_ttft", g.meanTtft);
        out.put(p + "p50_ttft", g.p50Ttft);
        out.put(p + "p99_ttft", g.p99Ttft);
        out.put(p + "mean_e2e", g.meanE2eLatency);
        out.put(p + "mean_qoe", g.meanQoe);
        out.put(p + "slo_violation_rate", g.sloViolationRate);
    }

    out.put("kv_transfer_latencies", r.kvTransferLatencies);
    out.line("scheduler", r.schedulerName);
    out.line("placement", r.placementName);
    out.line("predictor", r.predictorName);

    for (const obs::StatValue& s : r.statsDump) {
        if (workStat(s.name))
            continue;
        const std::string p = "stat." + s.name + ".";
        out.line(p + "kind", obs::statKindName(s.kind));
        out.put(p + "value", s.value);
        out.put(p + "count", static_cast<std::uint64_t>(s.count));
        out.put(p + "mean", s.mean);
        out.put(p + "min", s.min);
        out.put(p + "max", s.max);
        out.put(p + "stddev", s.stddev);
    }
    return std::move(out.text);
}

std::uint64_t
digest(const RunResult& r)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : canonicalText(r)) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace cluster
} // namespace pascal
