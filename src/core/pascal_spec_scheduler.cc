#include "src/core/pascal_spec_scheduler.hh"

#include <cmath>

namespace pascal
{
namespace core
{

PascalSpecScheduler::PascalSpecScheduler(SchedLimits limits)
    : PascalScheduler(limits, /*keyed=*/true)
{}

bool
PascalSpecScheduler::shouldDemote(const workload::Request* req) const
{
    // Safety net: the paper's reactive rule still applies, so an
    // under-predicting predictor cannot keep a monster in the high
    // queue forever.
    if (PascalScheduler::shouldDemote(req))
        return true;
    if (lengthPredictor == nullptr)
        return false;

    TokenCount kv = req->kvTokens();
    if (kv + limits.demoteLookaheadTokens <=
        limits.demoteThresholdTokens) {
        // Too far from the threshold: even a correct prediction would
        // demote needlessly early and cost the request its rightful
        // high-priority service.
        return false;
    }
    double predicted_final_kv =
        static_cast<double>(kv) +
        lengthPredictor->predictRemainingReasoningTokens(*req);
    return predicted_final_kv >
           static_cast<double>(limits.demoteThresholdTokens);
}

double
PascalSpecScheduler::queueKey(const workload::Request* req) const
{
    if (lengthPredictor == nullptr)
        return 0.0;
    return lengthPredictor->rankScore(*req);
}

} // namespace core
} // namespace pascal
