/**
 * @file
 * Shared CLI plumbing for the example binaries.
 *
 * Every example parses some mix of {policy name, request count,
 * arrival rate, instance count, threads}; this header owns the policy
 * registry (including the speculative SRPT / PASCAL-Spec deployments)
 * and the argument validators so the four mains stay one-screen
 * scenario scripts instead of re-implementing the same parsing.
 */

#ifndef PASCAL_EXAMPLES_EXAMPLE_CLI_HH
#define PASCAL_EXAMPLES_EXAMPLE_CLI_HH

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/cluster/system_config.hh"
#include "src/common/log.hh"

namespace pascal
{
namespace examples
{

/** One selectable deployment: scheduler + placement (+ predictor). */
struct PolicyChoice
{
    std::string name; //!< CLI spelling, e.g. "pascal-spec".
    cluster::SchedulerType scheduler;
    cluster::PlacementType placement;
    predict::PredictorType predictor = predict::PredictorType::None;
};

/** Every policy the examples can run. The speculative policies default
 *  to the oracle predictor (their upper bound); sweep other predictors
 *  programmatically via SweepRunner::addPredictorGrid. */
inline std::vector<PolicyChoice>
allPolicies()
{
    using cluster::PlacementType;
    using cluster::SchedulerType;
    using predict::PredictorType;
    return {
        {"fcfs", SchedulerType::Fcfs, PlacementType::Baseline},
        {"rr", SchedulerType::Rr, PlacementType::Baseline},
        {"pascal", SchedulerType::Pascal, PlacementType::Pascal},
        {"srpt", SchedulerType::Srpt, PlacementType::PascalPredictive,
         PredictorType::Oracle},
        {"pascal-spec", SchedulerType::PascalSpec,
         PlacementType::PascalPredictive, PredictorType::Oracle},
    };
}

/** Resolve a policy argument: one name, or "all" for every policy. */
inline std::vector<PolicyChoice>
parsePolicies(const std::string& name)
{
    if (name == "all")
        return allPolicies();
    for (const auto& policy : allPolicies()) {
        if (policy.name == name)
            return {policy};
    }
    std::string known;
    for (const auto& policy : allPolicies())
        known += policy.name + "|";
    fatal("unknown scheduler '" + name + "' (use " + known + "all)");
}

/** SystemConfig for one policy on @p instances instances. */
inline cluster::SystemConfig
configFor(const PolicyChoice& policy, int instances)
{
    cluster::SystemConfig cfg;
    cfg.scheduler = policy.scheduler;
    cfg.placement = policy.placement;
    cfg.predictor.type = policy.predictor;
    cfg.numInstances = instances;
    return cfg;
}

/**
 * Strip `--trace-out <path>` out of argv (compacting argc/argv in
 * place), so a main's positional parsing stays untouched, and return
 * the path ("" when the flag is absent: tracing stays off). The trace
 * is a ui.perfetto.dev-loadable timeline.
 */
inline std::string
stripTraceOutFlag(int& argc, char** argv)
{
    std::string trace_out;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace-out") == 0) {
            if (i + 1 >= argc)
                fatal("--trace-out needs a path argument");
            trace_out = argv[++i];
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return trace_out;
}

/** Write one run's Perfetto trace JSON to @p path. */
inline void
writeTraceFile(const std::string& path, const std::string& trace_json)
{
    if (trace_json.empty())
        fatal("no trace recorded — was telemetry.traceEnabled set?");
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '" + path + "' for writing");
    out << trace_json;
}

/** Parse a whole-string integer; fatal() on garbage or tails. */
inline long
parseInt(const char* arg, const std::string& what)
{
    char* end = nullptr;
    long value = std::strtol(arg, &end, 10);
    if (end == arg || *end != '\0')
        fatal(what + " must be an integer (got '" + std::string(arg) +
              "')");
    return value;
}

/** Parse a strictly positive integer argument. */
inline int
parsePositiveInt(const char* arg, const std::string& what)
{
    long value = parseInt(arg, what);
    if (value <= 0)
        fatal(what + " must be a positive integer (got '" +
              std::string(arg) + "')");
    return static_cast<int>(value);
}

/** Parse a non-negative integer argument (0 often = "auto"). */
inline int
parseNonNegativeInt(const char* arg, const std::string& what)
{
    long value = parseInt(arg, what);
    if (value < 0)
        fatal(what + " must be a non-negative integer (got '" +
              std::string(arg) + "')");
    return static_cast<int>(value);
}

/** Parse a strictly positive real argument. */
inline double
parsePositiveReal(const char* arg, const std::string& what)
{
    char* end = nullptr;
    double value = std::strtod(arg, &end);
    if (end == arg || *end != '\0' || value <= 0.0)
        fatal(what + " must be a positive number (got '" +
              std::string(arg) + "')");
    return value;
}

} // namespace examples
} // namespace pascal

#endif // PASCAL_EXAMPLES_EXAMPLE_CLI_HH
