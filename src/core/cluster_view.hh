/**
 * @file
 * The instance monitor's view of the cluster (Fig. 6): the per-instance
 * runtime signals that the instance-level scheduler's placement
 * algorithms consume. The cluster takes every instance's snapshot
 * fresh at each placement decision; nothing here is cached.
 */

#ifndef PASCAL_CORE_CLUSTER_VIEW_HH
#define PASCAL_CORE_CLUSTER_VIEW_HH

#include <vector>

#include "src/common/types.hh"

namespace pascal
{
namespace core
{

/** Snapshot of one serving instance at a placement decision point. */
struct InstanceSnapshot
{
    InstanceId id = kNoInstance;

    /** Routable: the instance is up and not draining. Placement skips
     *  down/draining instances entirely (fault layer; always true
     *  when fault injection is off). */
    bool up = true;

    /** Paper t_i: every answering request on the instance is meeting
     *  its SLO according to the token pacer. */
    bool answeringSloOk = true;

    /** Paper m_i: total KV footprint (GPU + CPU tiers), in tokens. */
    TokenCount kvFootprintTokens = 0;

    /**
     * Speculative m_i: current footprint plus the predicted remaining
     * decode tokens of every hosted request (each future token appends
     * one KV entry). Equals kvFootprintTokens when the cluster runs
     * without a predictor, and in the views taken for phase
     * transitions, which never read it. The predictive placement
     * variant routes new requests on this, so an instance full of
     * nearly-done requests looks emptier than one full of
     * just-started monsters.
     */
    TokenCount predictedKvFootprintTokens = 0;

    /** Paper r_i: reasoning requests in the high-priority queue. */
    int numReasoning = 0;

    /** Paper a_i: answering requests still inside their first
     *  quantum. */
    int numFreshAnswering = 0;

    /** Free GPU KV tokens (adaptive-migration signal, Fig. 7). */
    TokenCount gpuFreeTokens = 0;

    /** Total GPU KV capacity in tokens. */
    TokenCount gpuCapacityTokens = 0;
};

/** One snapshot per instance, indexed by instance id. */
using ClusterView = std::vector<InstanceSnapshot>;

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_CLUSTER_VIEW_HH
