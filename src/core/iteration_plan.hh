/**
 * @file
 * The contract between an intra-instance scheduler and the instance
 * batch engine: one iteration's worth of decisions.
 */

#ifndef PASCAL_CORE_ITERATION_PLAN_HH
#define PASCAL_CORE_ITERATION_PLAN_HH

#include <vector>

#include "src/common/types.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace core
{

/**
 * Scheduler decisions for the next iteration. The engine applies them
 * in order: swapOut, swapIn, prewarm, then either one prefill pass or
 * one decode step (vLLM-style alternation: iterations with prefills do
 * not decode).
 */
struct IterationPlan
{
    /** New requests to prefill (KV allocated, prefill latency paid). */
    std::vector<workload::Request*> prefill;

    /** startInAnswering requests whose KV is pre-generated: allocate
     *  without prefill cost (Fig. 5 characterization mode). */
    std::vector<workload::Request*> prewarm;

    /** Preempted requests to reload from CPU (PCIe latency). */
    std::vector<workload::Request*> swapIn;

    /** Resident requests to offload to CPU (PCIe latency). */
    std::vector<workload::Request*> swapOut;

    /** Decode batch: each member emits one token this iteration. */
    std::vector<workload::Request*> decode;

    bool
    idle() const
    {
        return prefill.empty() && prewarm.empty() && swapIn.empty() &&
               swapOut.empty() && decode.empty();
    }

    bool isPrefillIteration() const { return !prefill.empty(); }

    /** Clear all decisions but keep the vectors' capacity, so a plan
     *  rebuilt every iteration stops allocating once warm. */
    void
    reset()
    {
        prefill.clear();
        prewarm.clear();
        swapIn.clear();
        swapOut.clear();
        decode.clear();
    }
};

/** Tunables shared by every scheduling policy. */
struct SchedLimits
{
    /** RR token quantum (paper: 500 for RR and for each PASCAL
     *  queue). <= 0 disables quantum accounting (FCFS). */
    TokenCount quantum = 500;

    /** Maximum concurrent sequences per iteration. */
    int maxBatchSize = 1024;

    /** Maximum summed prompt tokens per prefill iteration. */
    TokenCount maxPrefillTokens = 8192;

    /** Maximum sequences per prefill iteration. */
    int maxPrefillSeqs = 16;

    /** PASCAL: reasoning requests whose KV exceeds this many tokens
     *  are demoted to the low-priority queue (paper: 5000). */
    TokenCount demoteThresholdTokens = 5000;

    /**
     * PASCAL-Spec: how far below the demotion threshold predictive
     * demotion may fire. A reasoning request whose *predicted* final
     * reasoning KV exceeds demoteThresholdTokens is demoted as soon as
     * its current KV enters this window (i.e. up to this many tokens
     * early), instead of waiting for the threshold to actually be
     * crossed. 0 disables lookahead and reproduces the reactive rule;
     * must stay below demoteThresholdTokens.
     */
    TokenCount demoteLookaheadTokens = 512;

    /**
     * PASCAL extension (suggested by the paper's Fig. 13 analysis:
     * "the placement policy only considers the KV cache footprint
     * during reasoning [and] neglects the memory required for
     * answering"): reserve this fraction of the GPU KV capacity for
     * the low-priority (answering) queue. 0 reproduces the paper's
     * scheduler exactly.
     */
    double answeringReserveFraction = 0.0;

    /**
     * False (default, vLLM 0.6.x): iterations with prefills do not
     * decode (prefill priority). True (Sarathi-style chunked/mixed
     * batching): prefills and decodes share an iteration, removing
     * decode stalls at the cost of longer mixed iterations.
     */
    bool chunkedPrefill = false;

    /**
     * Debug mode: disable the incremental scheduling fast path and
     * recompute every queue from scratch at every iteration (the
     * pre-optimization behaviour). The PASCAL_FORCE_RESORT environment
     * variable forces this globally. Results must be byte-identical
     * either way — the plan-reuse invariance tests run the same traces
     * in both modes and compare RunResults field by field.
     */
    bool forceResort = false;

    /**
     * Debug mode mirroring forceResort for the lazy phase-time
     * accrual: keep the eager O(hosted) per-iteration walk as a
     * verification pass that recomputes every hosted request's
     * standing bucket and panics if the lazily maintained stamp
     * disagrees. Settlement arithmetic is shared between the modes,
     * so RunResults are byte-identical whenever the stamps are
     * right — the accrual invariance tests run the full scheduler x
     * predictor grid this way. The PASCAL_FORCE_ACCRUE environment
     * variable forces it globally.
     */
    bool forceAccrue = false;

    /** Validate; calls fatal() on nonsense values. */
    void validate() const;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_ITERATION_PLAN_HH
