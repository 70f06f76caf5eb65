/**
 * @file
 * Golden digests: every policy x predictor cell of a scaled-down
 * constrained deployment (the noisy-oracle and rank predictors only
 * under the predictor-keyed policies), one chaos + SLO-class point, and small-n
 * versions of the four perfbench workload shapes must hash
 * (cluster::digest) to the value committed in tests/golden/digests.txt.
 *
 * The force twins reproduce a run's canonical text, so these digests
 * hold under PASCAL_FORCE_RESORT / PASCAL_FORCE_ACCRUE too. Changing
 * the file is a deliberate act: a change to simulated behaviour
 * re-blesses it in its own commit, with the reason recorded. On a
 * mismatch the test prints the whole file as this build computes it.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SystemConfig;

/** AlpacaEval 2.0 at a quarter of the 8-instance medium rate on 2
 *  instances with a tight pool: swaps, migrations and demotions all
 *  fire. */
workload::Trace
constrainedTrace()
{
    Rng rng(2026);
    return workload::generateTrace(workload::DatasetProfile::alpacaEval(),
                                   160, 7.0, rng);
}

SystemConfig
constrainedConfig(SchedulerType sched, const predict::PredictorConfig& pred)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.predictor = pred;
    cfg.placement = pred.type == predict::PredictorType::None
                        ? PlacementType::Pascal
                        : PlacementType::PascalPredictive;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = 12288;
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 1500;
    cfg.limits.demoteLookaheadTokens = 256;
    return cfg;
}

/** A request storm on 3 instances with every fault species and the
 *  SLO-class layer on. The retry budget never runs out and nothing is
 *  shed, so every request finishes; about half the Interactive
 *  requests outlive their deadline and are demoted to best-effort. */
workload::Trace
chaosTrace()
{
    Rng rng(4242);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {80.0, 0.5, 32, 192};
    profile.reasoning = {160.0, 0.7, 24, 700};
    profile.answering = {70.0, 0.6, 16, 300};
    auto trace = workload::generateTrace(profile, 150, 300.0, rng);
    workload::assignSloClasses(trace);
    return trace;
}

SystemConfig
chaosConfig()
{
    SystemConfig cfg;
    cfg.scheduler = SchedulerType::PascalSpec;
    cfg.predictor.type = predict::PredictorType::Profile;
    cfg.placement = PlacementType::PascalPredictive;
    cfg.numInstances = 3;
    cfg.gpuKvCapacityTokens = 16384;
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 700;
    cfg.fault.enabled = true;
    cfg.fault.seed = 7;
    cfg.fault.crashRate = 0.3;
    cfg.fault.mttr = 1.5;
    cfg.fault.decommissionRate = 0.1;
    cfg.fault.drainGrace = 0.8;
    cfg.fault.stragglerRate = 0.2;
    cfg.fault.stragglerFactor = 3.0;
    cfg.fault.stragglerDuration = 1.0;
    cfg.fault.linkFailureProb = 0.2;
    cfg.fault.retryBudget = 1000;
    cfg.fault.backoffBase = 0.1;
    cfg.fault.backoffCap = 1.0;
    cfg.sloClasses.enabled = true;
    cfg.sloClasses.overloadControl = false;
    for (auto& c : cfg.sloClasses.classes)
        c.demoteOnExpiry = true;
    cfg.sloClasses
        .classes[workload::sloClassIndex(workload::SloClass::Interactive)]
        .relativeDeadline = 15.0;
    return cfg;
}

/** Requests per perfbench-shape cell: enough for each shape's
 *  mechanisms to fire, few enough to keep the suite fast. */
constexpr int kShapeRequests = 300;

/** The perfbench workloads' recipes (bench_util.hh) at small n: the
 *  8-instance H100 cluster under PASCAL with AlpacaEval at its low
 *  rate and Arena-Hard at its high rate, PASCAL-Spec over predictive
 *  placement with the profile predictor, and the 4-instance
 *  fault + SLO-class cluster. */
std::vector<std::pair<std::string, cluster::RunResult>>
perfbenchShapes()
{
    const bench::PolicyUnderTest pascal{"PASCAL", SchedulerType::Pascal,
                                        PlacementType::Pascal};
    const bench::DatasetBench alpaca = bench::alpacaBench();
    const bench::DatasetBench arena = bench::arenaBench();
    std::vector<std::pair<std::string, cluster::RunResult>> out;

    Rng steady_rng(11);
    const workload::Trace steady = workload::generateTrace(
        alpaca.profile, kShapeRequests, alpaca.lowRate, steady_rng);
    out.emplace_back("perfbench/alpaca-steady",
                     cluster::RunContext::execute(
                         bench::clusterConfig(pascal, 8), steady));

    Rng arena_rng(12);
    out.emplace_back(
        "perfbench/arena-overload",
        cluster::RunContext::execute(
            bench::clusterConfig(pascal, 8),
            workload::generateTrace(arena.profile, kShapeRequests,
                                    arena.highRate, arena_rng)));

    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 32, 256};
    profile.reasoning = {200.0, 0.7, 32, 800};
    profile.answering = {80.0, 0.6, 16, 350};
    Rng chaos_rng(13);
    workload::Trace chaos =
        workload::generateTrace(profile, kShapeRequests, 24.0, chaos_rng);
    workload::assignSloClasses(chaos);
    SystemConfig chaos_cfg = bench::clusterConfig(pascal, 4);
    chaos_cfg.gpuKvCapacityTokens = 32768;
    chaos_cfg.sloClasses.enabled = true;
    chaos_cfg.sloClasses.overloadControl = false;
    for (auto& c : chaos_cfg.sloClasses.classes)
        c.demoteOnExpiry = true;
    chaos_cfg.sloClasses
        .classes[workload::sloClassIndex(workload::SloClass::Interactive)]
        .relativeDeadline = 20.0;
    chaos_cfg.fault.enabled = true;
    chaos_cfg.fault.seed = 14;
    chaos_cfg.fault.crashRate = 0.02;
    chaos_cfg.fault.mttr = 8.0;
    chaos_cfg.fault.decommissionRate = 0.005;
    chaos_cfg.fault.drainGrace = 5.0;
    chaos_cfg.fault.stragglerRate = 0.02;
    chaos_cfg.fault.stragglerFactor = 3.0;
    chaos_cfg.fault.stragglerDuration = 6.0;
    chaos_cfg.fault.linkFailureProb = 0.1;
    chaos_cfg.fault.retryBudget = 1000;
    chaos_cfg.fault.backoffBase = 0.25;
    chaos_cfg.fault.backoffCap = 4.0;
    out.emplace_back("perfbench/chaos-classes",
                     cluster::RunContext::execute(chaos_cfg, chaos));

    predict::PredictorConfig pred;
    pred.type = predict::PredictorType::Profile;
    out.emplace_back("perfbench/alpaca-spec",
                     cluster::RunContext::execute(
                         SystemConfig::speculative(
                             SchedulerType::PascalSpec, pred, 8),
                         steady));
    return out;
}

/** name -> hex digest, in file order. */
using Digests = std::vector<std::pair<std::string, std::string>>;

Digests
computeDigests()
{
    const std::pair<const char*, SchedulerType> scheds[] = {
        {"fcfs", SchedulerType::Fcfs},
        {"rr", SchedulerType::Rr},
        {"pascal", SchedulerType::Pascal},
        {"srpt", SchedulerType::Srpt},
        {"pascal-spec", SchedulerType::PascalSpec},
    };
    // Every policy runs under none/oracle/profile; the predictor-keyed
    // policies also under a noisy oracle (sigma 0.5), whose unequal
    // per-request factors let members overtake each other, and under
    // the rank predictor, whose win rates move every completion.
    std::vector<predict::PredictorConfig> preds(5);
    preds[1].type = predict::PredictorType::Oracle;
    preds[2].type = predict::PredictorType::Profile;
    preds[3].type = predict::PredictorType::NoisyOracle;
    preds[3].noiseSigma = 0.5;
    preds[4].type = predict::PredictorType::Rank;
    auto hex = [](std::uint64_t d) {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, d);
        return std::string(buf);
    };
    Digests out;
    const workload::Trace trace = constrainedTrace();
    for (const auto& [sched_name, sched] : scheds) {
        // Speculative policies cannot run without a predictor; the
        // config layer rejects that cell.
        bool speculative = sched == SchedulerType::Srpt ||
                           sched == SchedulerType::PascalSpec;
        for (const auto& pred : preds) {
            bool keyed_only =
                pred.type == predict::PredictorType::NoisyOracle ||
                pred.type == predict::PredictorType::Rank;
            if (speculative ? pred.type == predict::PredictorType::None
                            : keyed_only)
                continue;
            SystemConfig cfg = constrainedConfig(sched, pred);
            out.emplace_back(
                std::string("constrained/") + sched_name + "/" +
                    pred.name(),
                hex(cluster::digest(
                    cluster::RunContext::execute(cfg, trace))));
        }
    }
    out.emplace_back(
        "chaos-classes/pascal-spec/profile",
        hex(cluster::digest(
            cluster::RunContext::execute(chaosConfig(), chaosTrace()))));
    for (const auto& [name, result] : perfbenchShapes())
        out.emplace_back(name, hex(cluster::digest(result)));
    return out;
}

/** Parses "name digest" lines; '#' starts a comment line. */
std::map<std::string, std::string>
readGolden(const std::string& path)
{
    std::map<std::string, std::string> golden;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        std::string digest;
        fields >> name >> digest;
        golden[name] = digest;
    }
    return golden;
}

TEST(Golden, DigestsMatchTheCommittedFile)
{
    setQuiet(true);
    const Digests computed = computeDigests();
    setQuiet(false);
    const auto golden = readGolden(std::string(PASCAL_TEST_SOURCE_DIR) +
                                   "/golden/digests.txt");

    std::string file;
    bool all_match = golden.size() == computed.size();
    for (const auto& [name, digest] : computed) {
        file += name + " " + digest + "\n";
        auto it = golden.find(name);
        if (it == golden.end() || it->second != digest) {
            all_match = false;
            ADD_FAILURE() << name << ": computed " << digest
                          << ", golden "
                          << (it == golden.end() ? "<missing>"
                                                 : it->second);
        }
    }
    EXPECT_TRUE(all_match)
        << "digests this build computes (tests/golden/digests.txt "
           "without its comment header):\n"
        << file;
}

} // namespace
