#include "src/cluster/system_config.hh"

#include <string>

#include "src/common/log.hh"
#include "src/core/fcfs_scheduler.hh"
#include "src/core/pascal_placement.hh"
#include "src/core/pascal_scheduler.hh"
#include "src/core/pascal_spec_scheduler.hh"
#include "src/core/rr_scheduler.hh"
#include "src/core/srpt_scheduler.hh"

namespace pascal
{
namespace cluster
{

void
SystemConfig::validate() const
{
    model.validate();
    hardware.validate();
    limits.validate();
    slo.validate();
    sloClasses.validate();
    predictor.validate();
    fault.validate();
    if (numInstances <= 0)
        fatal("SystemConfig: numInstances must be positive");
    if (gpuKvCapacityTokens < 0)
        fatal("SystemConfig: negative KV capacity");
    if (kvBlockSizeTokens <= 0)
        fatal("SystemConfig: kvBlockSizeTokens must be positive");
    if (gpuKvCapacityTokens > 0 &&
        gpuKvCapacityTokens % kvBlockSizeTokens != 0) {
        TokenCount rounded = (gpuKvCapacityTokens / kvBlockSizeTokens +
                              1) * kvBlockSizeTokens;
        fatal("SystemConfig: gpuKvCapacityTokens (" +
              std::to_string(gpuKvCapacityTokens) +
              ") must be a multiple of the paged-KV block size (" +
              std::to_string(kvBlockSizeTokens) +
              "); the paged allocator cannot hand out the remainder. "
              "Round up to " + std::to_string(rounded) +
              " or set kvBlockSizeTokens = 1 for token-granular "
              "accounting");
    }
    if (maxSimTime <= 0.0)
        fatal("SystemConfig: maxSimTime must be positive");
    if (telemetry.traceEnabled && telemetry.traceCapacity == 0)
        fatal("SystemConfig: telemetry.traceCapacity must be positive "
              "when tracing is enabled");

    // Speculative policies cannot run blind; reject the inconsistent
    // combination here so it fails at configuration time, not when the
    // first iteration asks for a plan.
    bool needs_predictor = scheduler == SchedulerType::Srpt ||
                           scheduler == SchedulerType::PascalSpec ||
                           placement == PlacementType::PascalPredictive;
    if (needs_predictor &&
        predictor.type == predict::PredictorType::None) {
        fatal("SystemConfig: scheduler '" + schedulerName() +
              "' / placement '" + placementName() +
              "' needs a length predictor; set predictor.type "
              "(PredictorType::Oracle is the upper-bound choice, "
              "Profile/Rank learn online) or pick a reactive policy");
    }
    if (scheduler == SchedulerType::PascalSpec && limits.quantum <= 0) {
        fatal("SystemConfig: PASCAL-Spec time-shares its queues and "
              "needs a positive token quantum (the paper uses 500); "
              "quantum-free speculation is what SRPT is for");
    }
    if (scheduler == SchedulerType::PascalSpec &&
        limits.demoteLookaheadTokens >= limits.demoteThresholdTokens) {
        fatal("SystemConfig: demoteLookaheadTokens (" +
              std::to_string(limits.demoteLookaheadTokens) +
              ") must stay below demoteThresholdTokens (" +
              std::to_string(limits.demoteThresholdTokens) +
              "), otherwise PASCAL-Spec would demote reasoning "
              "requests from birth; shrink the lookahead window");
    }
}

std::string
SystemConfig::schedulerName() const
{
    switch (scheduler) {
      case SchedulerType::Fcfs:
        return "FCFS";
      case SchedulerType::Rr:
        return "RR";
      case SchedulerType::Pascal:
        return "PASCAL";
      case SchedulerType::Srpt:
        return "SRPT";
      case SchedulerType::PascalSpec:
        return "PASCAL-Spec";
    }
    return "?";
}

std::string
SystemConfig::placementName() const
{
    switch (placement) {
      case PlacementType::Baseline:
        return "min-kv/no-migration";
      case PlacementType::Pascal:
        return "PASCAL";
      case PlacementType::PascalNonAdaptive:
        return "PASCAL(NonAdaptive)";
      case PlacementType::PascalNoMigration:
        return "PASCAL(NoMigration)";
      case PlacementType::PascalPredictive:
        return "PASCAL(Predictive)";
    }
    return "?";
}

SystemConfig
SystemConfig::baseline(SchedulerType sched, int num_instances)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = PlacementType::Baseline;
    cfg.numInstances = num_instances;
    return cfg;
}

SystemConfig
SystemConfig::pascal(int num_instances)
{
    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Pascal;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = num_instances;
    return cfg;
}

SystemConfig
SystemConfig::speculative(SchedulerType sched,
                          predict::PredictorConfig pred,
                          int num_instances)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = PlacementType::PascalPredictive;
    cfg.predictor = pred;
    cfg.numInstances = num_instances;
    return cfg;
}

std::unique_ptr<core::IntraScheduler>
makeScheduler(SchedulerType type, const core::SchedLimits& limits)
{
    switch (type) {
      case SchedulerType::Fcfs:
        return std::make_unique<core::FcfsScheduler>(limits);
      case SchedulerType::Rr:
        return std::make_unique<core::RrScheduler>(limits);
      case SchedulerType::Pascal:
        return std::make_unique<core::PascalScheduler>(limits);
      case SchedulerType::Srpt:
        return std::make_unique<core::SrptScheduler>(limits);
      case SchedulerType::PascalSpec:
        return std::make_unique<core::PascalSpecScheduler>(limits);
    }
    fatal("makeScheduler: unknown scheduler type");
}

std::unique_ptr<core::Placement>
makePlacement(PlacementType type)
{
    using Variant = core::PascalPlacement::Variant;
    switch (type) {
      case PlacementType::Baseline:
        return std::make_unique<core::BaselinePlacement>();
      case PlacementType::Pascal:
        return std::make_unique<core::PascalPlacement>(Variant::Full);
      case PlacementType::PascalNonAdaptive:
        return std::make_unique<core::PascalPlacement>(
            Variant::NonAdaptive);
      case PlacementType::PascalNoMigration:
        return std::make_unique<core::PascalPlacement>(
            Variant::NoMigration);
      case PlacementType::PascalPredictive:
        return std::make_unique<core::PascalPlacement>(
            Variant::Predictive);
    }
    fatal("makePlacement: unknown placement type");
}

} // namespace cluster
} // namespace pascal
