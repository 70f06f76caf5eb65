/**
 * @file
 * Prediction error vs. scheduling benefit: the speculative Pareto.
 *
 * Two questions, one table:
 *  1. How accurate is each LengthPredictor on a reasoning-heavy
 *     workload? Measured *prequentially*: requests are replayed in
 *     arrival order, each prediction is scored on a fresh request
 *     before its completion is fed back, so online predictors are
 *     judged with exactly the knowledge they would have had mid-run.
 *  2. How much of SRPT's / PASCAL-Spec's latency win survives that
 *     error? Each scheduler × predictor point runs the same trace
 *     through SweepRunner, anchored by the reactive FCFS/RR/PASCAL
 *     rows.
 *
 * Output: a table plus JSON (default bench_predictor_accuracy.json,
 * override with argv[1]) with one record per point — mean absolute
 * relative prediction error against mean answering latency and
 * mean/p99 TTFT — so CI can track the Pareto frontier over time.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "src/cluster/sweep_runner.hh"
#include "src/common/log.hh"
#include "src/predict/predictor.hh"

namespace
{

using namespace pascal;

/** Reasoning-heavy mix of Section V-D at contention-inducing load. */
workload::Trace
benchTrace()
{
    std::vector<workload::MixComponent> mix = {
        {workload::DatasetProfile::math500(), 1.0},
        {workload::DatasetProfile::gpqa(), 1.0},
        {workload::DatasetProfile::liveCodeBench(), 1.0},
    };
    Rng rng(71);
    return workload::generateMixedTrace(mix, 500, 14.0, rng);
}

/**
 * Prequential mean absolute relative error of @p cfg's predictor on
 * fresh arrivals: predict each request's total remaining work before
 * observing its completion.
 */
double
prequentialError(const predict::PredictorConfig& cfg,
                 const workload::Trace& trace)
{
    auto predictor = predict::makePredictor(cfg);
    if (predictor == nullptr)
        return 0.0;
    double sum = 0.0;
    std::size_t n = 0;
    workload::DatasetTable datasets;
    for (const auto& spec : trace.requests) {
        workload::Request req(spec, datasets.intern(spec.dataset));
        double actual = static_cast<double>(req.totalToGenerate());
        if (actual <= 0.0)
            continue;
        double predicted = predictor->predictRemainingTokens(req);
        sum += std::fabs(predicted - actual) / actual;
        ++n;
        predictor->observeCompletion(req);
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

struct Record
{
    std::string scheduler;
    std::string predictor;
    double error;
    double meanAnswering;
    double meanTtft;
    double p99Ttft;
    double sloViolationRate;
};

} // namespace

int
main(int argc, char** argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "bench_predictor_accuracy.json";

    bench::header("bench_predictor_accuracy",
                  "prediction error vs. speculative scheduling gain");

    auto trace = benchTrace();

    const auto predictors = predict::standardSweepPredictors();

    cluster::SweepRunner runner;
    auto t = runner.addTrace(trace);

    // Reactive anchors.
    for (const auto& policy : bench::mainPolicies()) {
        runner.add({policy.label, bench::clusterConfig(policy, 4), t,
                    71});
    }
    // Speculative grid: both schedulers under every predictor.
    using cluster::SchedulerType;
    for (auto sched : {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        for (const auto& pred : predictors) {
            auto cfg = cluster::SystemConfig::speculative(sched, pred,
                                                          4);
            std::string label = cfg.schedulerName() + ":" + pred.name();
            runner.add({label, cfg, t, 71});
        }
    }

    std::printf("workload: %zu reasoning-heavy requests at 14 req/s "
                "on 4 instances; %zu sweep points\n\n",
                trace.size(), runner.numPoints());
    auto sweep = runner.run();

    // One prequential replay per predictor, shared by every scheduler
    // row that ran under it; reactive anchors ("none") score 0.
    std::map<std::string, double> error_by_predictor;
    for (const auto& pred : predictors)
        error_by_predictor[pred.name()] = prequentialError(pred, trace);

    std::vector<Record> records;
    for (const auto& outcome : sweep.outcomes) {
        const auto& agg = outcome.result.aggregate;
        auto it = error_by_predictor.find(outcome.result.predictorName);
        double error =
            it == error_by_predictor.end() ? 0.0 : it->second;
        records.push_back({outcome.result.schedulerName,
                           outcome.result.predictorName, error,
                           agg.meanAnsweringLatency, agg.meanTtft,
                           agg.p99Ttft, agg.sloViolationRate});
    }

    std::printf("%-12s %-12s %9s %12s %10s %10s %8s\n", "scheduler",
                "predictor", "MARE", "mean-answer", "mean TTFT",
                "p99 TTFT", "SLO-vio");
    bench::rule();
    for (const auto& r : records) {
        std::printf("%-12s %-12s %8.3f %11.2fs %9.2fs %9.2fs "
                    "%7.2f%%\n",
                    r.scheduler.c_str(), r.predictor.c_str(), r.error,
                    r.meanAnswering, r.meanTtft, r.p99Ttft,
                    100.0 * r.sloViolationRate);
    }

    std::ofstream json(json_path);
    if (!json)
        fatal("cannot open '" + json_path + "' for writing");
    json << "{\n  \"bench\": \"bench_predictor_accuracy\",\n"
         << "  " << bench::jsonMeta() << ",\n"
         << "  \"workload\": {\"requests\": " << trace.size()
         << ", \"rate_per_sec\": 14.0, \"instances\": 4},\n"
         << "  \"results\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto& r = records[i];
        json << "    {\"scheduler\": \"" << r.scheduler
             << "\", \"predictor\": \"" << r.predictor
             << "\", \"mean_abs_rel_error\": " << r.error
             << ", \"mean_answering_latency\": " << r.meanAnswering
             << ", \"mean_ttft\": " << r.meanTtft
             << ", \"p99_ttft\": " << r.p99Ttft
             << ", \"slo_violation_rate\": " << r.sloViolationRate
             << "}" << (i + 1 < records.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\nJSON trail -> %s\n", json_path.c_str());
    std::printf("Reading the Pareto: oracle rows bound the gain; the "
                "noisy rows show how it decays with error; profile/"
                "rank show what an online learner recovers without any "
                "oracle.\n");
    return 0;
}
