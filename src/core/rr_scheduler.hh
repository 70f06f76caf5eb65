/**
 * @file
 * Round-robin time-sharing scheduler (Section II-C, Fig. 2(c)).
 *
 * Every request receives a fixed token quantum (paper: 500). Having
 * consumed more quanta lowers a request's priority, so under memory
 * pressure the longest-running requests are preempted first and newly
 * arrived requests are admitted promptly, eliminating head-of-line
 * blocking at the cost of preemption overhead. The policy is
 * phase-unaware: reasoning and answering tokens count against the same
 * quantum.
 *
 * The queue's QueueOrder reduces to (quantaConsumed, arrival, id),
 * which only moves on a quantum rollover — once every `quantum`
 * emitted tokens per request — so a plan re-places only the handful of
 * requests that rolled over since the last plan.
 */

#ifndef PASCAL_CORE_RR_SCHEDULER_HH
#define PASCAL_CORE_RR_SCHEDULER_HH

#include <string>

#include "src/core/intra_scheduler.hh"

namespace pascal
{
namespace core
{

/** Token-quantum round-robin across all hosted requests. */
class RrScheduler : public IntraScheduler
{
  public:
    explicit RrScheduler(SchedLimits limits);

    std::string name() const override { return "RR"; }

  protected:
    void planInto(const model::KvPool& pool,
                  IterationPlan& out) override;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_RR_SCHEDULER_HH
