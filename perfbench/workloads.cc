#include "workloads.hh"

#include "src/common/rng.hh"
#include "src/workload/generator.hh"

#include "bench/bench_util.hh"

namespace pascal
{
namespace perfbench
{

namespace
{

const bench::PolicyUnderTest kPascal{"PASCAL",
                                     cluster::SchedulerType::Pascal,
                                     cluster::PlacementType::Pascal};

/** bench_chaos_goodput's short-request profile on a 4-instance,
 *  32768-token cluster: small enough that crashes and drains displace
 *  work many times per run. */
workload::DatasetProfile
chaosProfile()
{
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 32, 256};
    profile.reasoning = {200.0, 0.7, 32, 800};
    profile.answering = {80.0, 0.6, 16, 350};
    return profile;
}

/** Independent stream per (seed, episode); @p salt separates the
 *  arrival stream from the fault stream. */
std::uint64_t
streamSeed(std::uint64_t seed, int episode, std::uint64_t salt)
{
    return (seed * 1000003ULL + static_cast<std::uint64_t>(episode)) *
               2654435761ULL +
           salt;
}

} // namespace

cluster::SystemConfig
Workload::config(std::uint64_t seed, int episode) const
{
    if (name == "alpaca-spec") {
        predict::PredictorConfig pred;
        pred.type = predict::PredictorType::Profile;
        return cluster::SystemConfig::speculative(
            cluster::SchedulerType::PascalSpec, pred, 8);
    }
    if (name != "chaos-classes")
        return bench::clusterConfig(kPascal, 8);

    cluster::SystemConfig cfg = bench::clusterConfig(kPascal, 4);
    cfg.gpuKvCapacityTokens = 32768;
    cfg.sloClasses.enabled = true;
    cfg.fault.enabled = true;
    cfg.fault.seed = streamSeed(seed, episode, 1);
    cfg.fault.crashRate = 0.02;
    cfg.fault.mttr = 8.0;
    cfg.fault.decommissionRate = 0.005;
    cfg.fault.drainGrace = 5.0;
    cfg.fault.stragglerRate = 0.02;
    cfg.fault.stragglerFactor = 3.0;
    cfg.fault.stragglerDuration = 6.0;
    cfg.fault.linkFailureProb = 0.1;
    // Every request must still finish: the budget is never exhausted,
    // no class is shed, and an expired deadline demotes the request to
    // best-effort instead of failing it.
    cfg.fault.retryBudget = 1000;
    cfg.fault.backoffBase = 0.25;
    cfg.fault.backoffCap = 4.0;
    cfg.sloClasses.overloadControl = false;
    for (auto& c : cfg.sloClasses.classes)
        c.demoteOnExpiry = true;
    // Short enough that Interactive requests caught behind a crash
    // expire, so the deadline and demotion path runs.
    cfg.sloClasses.classes[workload::sloClassIndex(
                               workload::SloClass::Interactive)]
        .relativeDeadline = 20.0;
    return cfg;
}

workload::Trace
Workload::trace(std::uint64_t seed, int episode) const
{
    Rng rng(streamSeed(seed, episode, 0));
    const auto first_id =
        static_cast<RequestId>(episode) * static_cast<RequestId>(numRequests);
    if (name == "arena-overload") {
        const bench::DatasetBench arena = bench::arenaBench();
        return workload::generateTrace(arena.profile, numRequests,
                                       arena.highRate, rng, 0.0, first_id);
    }
    if (name == "chaos-classes") {
        auto trace = workload::generateTrace(chaosProfile(), numRequests,
                                             24.0, rng, 0.0, first_id);
        workload::assignSloClasses(trace);
        return trace;
    }
    const bench::DatasetBench alpaca = bench::alpacaBench();
    return workload::generateTrace(alpaca.profile, numRequests,
                                   alpaca.lowRate, rng, 0.0, first_id);
}

const std::vector<Workload>&
workloads()
{
    // Why each workload exists is recorded in BENCHMARK.json.
    static const std::vector<Workload> all = {
        {"alpaca-steady", 20000, 1},
        {"arena-overload", 5000, 8},
        {"chaos-classes", 2000, 24},
        {"alpaca-spec", 2500, 5},
    };
    return all;
}

const Workload*
findWorkload(const std::string& name)
{
    for (const auto& w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

} // namespace perfbench
} // namespace pascal
