#include "src/core/intra_scheduler.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace core
{

namespace
{
const char* const kPlanDeclineNames[] = {
    "none",          // PlanDecline::None
    "inactive",      // PlanDecline::Inactive
    "state_changed", // PlanDecline::StateChanged
    "veto",          // PlanDecline::Veto
    "budget",        // PlanDecline::Budget
};
} // namespace

const char*
planDeclineName(PlanDecline d)
{
    const auto idx = static_cast<std::size_t>(d);
    if (idx >= numPlanDeclineNames())
        return "unknown";
    return kPlanDeclineNames[idx];
}

const char* const*
planDeclineNames()
{
    return kPlanDeclineNames;
}

std::size_t
numPlanDeclineNames()
{
    return sizeof(kPlanDeclineNames) / sizeof(kPlanDeclineNames[0]);
}

void
SchedLimits::validate() const
{
    if (maxBatchSize <= 0)
        fatal("SchedLimits: maxBatchSize must be positive");
    if (maxPrefillTokens <= 0 || maxPrefillSeqs <= 0)
        fatal("SchedLimits: prefill limits must be positive");
    if (demoteThresholdTokens <= 0)
        fatal("SchedLimits: demoteThresholdTokens must be positive");
    if (answeringReserveFraction < 0.0 ||
        answeringReserveFraction >= 1.0) {
        fatal("SchedLimits: answeringReserveFraction must be in "
              "[0, 1)");
    }
    if (demoteLookaheadTokens < 0) {
        fatal("SchedLimits: demoteLookaheadTokens must be >= 0 "
              "(0 disables predictive demotion lookahead)");
    }
}

IntraScheduler::IntraScheduler(SchedLimits limits)
    : limits(limits),
      resortForced(limits.forceResort ||
                   std::getenv("PASCAL_FORCE_RESORT") != nullptr)
{
    limits.validate();
}

std::uint64_t
IntraScheduler::nextSortStamp()
{
    static std::atomic<std::uint64_t> last{0};
    return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
IntraScheduler::enableIncremental()
{
    if (resortForced)
        return;
    if (!requests.empty())
        panic("enableIncremental: must be called before requests are "
              "added");
    stateChanged = true;
    lastPlanReusable = false;
    if (keysUsePredictions())
        keyedReuse = true;
    else
        incremental = true;
}

void
IntraScheduler::add(workload::Request* req)
{
    if (req == nullptr)
        panic("IntraScheduler::add(nullptr)");
    stateChanged = true;
    req->schedHostedPos = requests.size();
    requests.push_back(req);
    req->schedPrevHosted = hostedLast;
    req->schedNextHosted = nullptr;
    if (hostedLast != nullptr)
        hostedLast->schedNextHosted = req;
    else
        hostedFirst = req;
    hostedLast = req;
    // Greedy-walk early-exit bookkeeping (any previous host already
    // unlinked the request from its own structures in remove()).
    req->schedInResidentList = false;
    req->schedEvictNode = nullptr;
    req->schedEvictDirty = false;
    req->schedPlanStamp = 0;
    req->schedCountedPrewarm = false;
    req->schedCountedWaiting = false;
    if (req->exec == workload::ExecState::WaitingNew) {
        waitingPrompts.insert(req->spec().promptTokens);
        req->schedCountedWaiting = true;
        if (req->spec().startInAnswering) {
            req->schedCountedPrewarm = true;
            ++waitingPrewarmCount;
        }
    }
    noteResidency(req); // Migration landings arrive holding KV.
    if (!incremental)
        return;
    // A migrated request carries stale bookkeeping from its previous
    // host; start from a clean slate.
    req->schedQueueTag = 0;
    req->schedDirtyPending = false;
    req->schedDemotionPending = false;
    req->schedCountedReasoning = false;
    req->schedCountedFreshAns = false;
    req->schedScore = 0.0;
    req->schedCachedQuanta = req->quantaConsumed;
    syncCounters(req);
    onHostedAdded(req);
}

void
IntraScheduler::remove(workload::Request* req)
{
    std::size_t pos = req->schedHostedPos;
    if (pos >= requests.size() || requests[pos] != req) {
        panic("IntraScheduler::remove: request " +
              std::to_string(req->id()) + " not hosted on instance " +
              (instanceId == kNoInstance ? std::string("?")
                                         : std::to_string(instanceId)));
    }
    stateChanged = true;
    requests[pos] = requests.back();
    requests[pos]->schedHostedPos = pos;
    requests.pop_back();
    if (req->schedPrevHosted != nullptr)
        req->schedPrevHosted->schedNextHosted = req->schedNextHosted;
    else
        hostedFirst = req->schedNextHosted;
    if (req->schedNextHosted != nullptr)
        req->schedNextHosted->schedPrevHosted = req->schedPrevHosted;
    else
        hostedLast = req->schedPrevHosted;
    req->schedPrevHosted = nullptr;
    req->schedNextHosted = nullptr;
    if (incremental) {
        if (req->schedCountedReasoning)
            --reasoningCount;
        if (req->schedCountedFreshAns)
            --freshAnsweringCount;
        req->schedCountedReasoning = false;
        req->schedCountedFreshAns = false;
        req->schedDemotionPending = false;
        // Queue unlink first (it reads schedInResidentList to keep
        // its material count exact), then the early-exit structures.
        onHostedRemoved(req);
    }
    unlinkMaterial(req);
    if (req->schedCountedWaiting) {
        // Departing while still waiting (not a path the engine takes
        // today, but the floor must stay exact regardless).
        req->schedCountedWaiting = false;
        waitingPrompts.erase(
            waitingPrompts.find(req->spec().promptTokens));
    }
    if (req->schedCountedPrewarm) {
        req->schedCountedPrewarm = false;
        --waitingPrewarmCount;
    }
}

void
IntraScheduler::unlinkMaterial(workload::Request* req)
{
    if (!req->schedInResidentList)
        return;
    if (incremental)
        evictOrder.erase(req);
    req->schedInResidentList = false;
}

void
IntraScheduler::noteResidency(workload::Request* req)
{
    stateChanged = true;
    bool material =
        req->exec == workload::ExecState::ResidentGpu ||
        req->exec == workload::ExecState::SwappedCpu;
    if (material && !req->schedInResidentList) {
        req->schedInResidentList = true;
        if (incremental) {
            // Deferred link: the eviction-order key is read at the
            // next build's repair(), after any same-boundary re-keys.
            evictOrder.insert(req);
        }
        if (req->schedNode != nullptr) {
            // Flipped in place while linked (prefill/prewarm
            // allocation): the owning queue's material count moves.
            onMaterialChanged(req, 1);
        }
        if (req->schedCountedWaiting) {
            // It stopped waiting: retire its admission-floor entry.
            req->schedCountedWaiting = false;
            waitingPrompts.erase(
                waitingPrompts.find(req->spec().promptTokens));
        }
    } else if (!material && req->schedInResidentList) {
        unlinkMaterial(req);
        if (req->schedNode != nullptr)
            onMaterialChanged(req, -1);
    }
    if (req->schedCountedPrewarm &&
        req->exec != workload::ExecState::WaitingNew) {
        req->schedCountedPrewarm = false;
        --waitingPrewarmCount;
    }
}

void
IntraScheduler::syncCounters(workload::Request* req)
{
    workload::Phase phase = req->phase();
    bool reasoning =
        phase == workload::Phase::Reasoning && !req->demoted;
    bool fresh = phase == workload::Phase::Answering &&
                 req->quantaConsumed == 0;
    if (reasoning != req->schedCountedReasoning) {
        reasoningCount += reasoning ? 1 : -1;
        req->schedCountedReasoning = reasoning;
    }
    if (fresh != req->schedCountedFreshAns) {
        freshAnsweringCount += fresh ? 1 : -1;
        req->schedCountedFreshAns = fresh;
    }
}

void
IntraScheduler::noteExecuted(workload::Request* req)
{
    if (!incremental)
        return;
    bool quanta_changed =
        req->quantaConsumed != req->schedCachedQuanta;
    req->schedCachedQuanta = req->quantaConsumed;
    syncCounters(req);
    onRequestExecuted(req, quanta_changed);
}

void
IntraScheduler::onPhaseTransition(workload::Request*)
{
    // Phase-unaware baselines need no bookkeeping. (The counter move
    // itself was already synced by noteExecuted when the transition
    // token was emitted.)
}

int
IntraScheduler::numReasoning() const
{
    return incremental ? reasoningCount : scanReasoning();
}

int
IntraScheduler::numFreshAnswering() const
{
    return incremental ? freshAnsweringCount : scanFreshAnswering();
}

int
IntraScheduler::scanReasoning() const
{
    int n = 0;
    for (const auto* r : requests) {
        if (r->phase() == workload::Phase::Reasoning && !r->demoted)
            ++n;
    }
    return n;
}

int
IntraScheduler::scanFreshAnswering() const
{
    int n = 0;
    for (const auto* r : requests) {
        if (r->phase() == workload::Phase::Answering && !r->finished()
            && r->quantaConsumed == 0) {
            ++n;
        }
    }
    return n;
}

void
IntraScheduler::buildPlan(const model::KvPool& pool, IterationPlan& out)
{
    out.reset();
    const bool reuse_on = incremental || keyedReuse;
    if (reuse_on) {
        lastKeptResidents.clear();
        lastDecodeCapped.clear();
        lastDecodeKeys.clear();
        lastHighBudgetCap = -1;
    }
    planInto(pool, out);
    if (!reuse_on)
        return;
    stateChanged = false;
    lastPredictorVersion = predictorVersion();
    lastPlanReusable =
        out.prefill.empty() && out.prewarm.empty() &&
        out.swapIn.empty() && out.swapOut.empty() &&
        !out.decode.empty() &&
        lastDecodeCapped.size() == out.decode.size();
    planAge = 0;
    if (lastPlanReusable && lastHighBudgetCap < 0) {
        auto block = static_cast<std::size_t>(pool.blockSize());
        blockOffsetHist.assign(block, 0);
        for (const auto* r : out.decode) {
            ++blockOffsetHist[static_cast<std::size_t>(
                r->kvTokens() % pool.blockSize())];
        }
    }
}

bool
IntraScheduler::reusePlan(const IterationPlan& prev,
                          const model::KvPool& pool)
{
    reuseDecline = PlanDecline::None;
    if (!incremental && !keyedReuse) {
        reuseDecline = PlanDecline::Inactive;
        return false;
    }
    if (!lastPlanReusable || stateChanged ||
        (keyedReuse && !keyedOrderHolds(prev))) {
        reuseDecline = PlanDecline::StateChanged;
        return false;
    }
    // Deferred plan-time decisions (demotion) fire exactly here, the
    // same point recompute mode applies them, so their timing relative
    // to snapshots and callbacks is identical in both modes.
    if (reuseVeto(prev)) {
        reuseDecline = PlanDecline::Veto;
        return false;
    }
    if (lastHighBudgetCap < 0) {
        // Uncapped walk: one integer comparison decides the whole
        // budget revalidation (see blockOffsetHist).
        TokenCount block = pool.blockSize();
        std::uint64_t k = planAge + 1;
        std::uint64_t crossings = blockOffsetHist[static_cast<
            std::size_t>((static_cast<std::uint64_t>(block) -
                          k % static_cast<std::uint64_t>(block)) %
                         static_cast<std::uint64_t>(block))];
        if (pool.gpuUsed() +
                block * static_cast<TokenCount>(crossings) >
            pool.gpuCapacity()) {
            reuseDecline = PlanDecline::Budget;
            return false;
        }
    } else if (!revalidate(prev, pool)) {
        reuseDecline = PlanDecline::Budget;
        return false;
    }
    ++planAge;
    return true;
}

bool
IntraScheduler::keyedOrderHolds(const IterationPlan& prev)
{
    // Only the members ran since the build, so only their keys can
    // have moved: an idle request's prediction is a pure function of
    // its own progress and the predictor state.
    if (predictorVersion() != lastPredictorVersion)
        return false;
    for (std::size_t i = 0; i < prev.decode.size(); ++i) {
        workload::Request* r = prev.decode[i];
        const DecodeKeys& rec = lastDecodeKeys[i];
        if (r->exec != workload::ExecState::ResidentGpu ||
            r->phase() != rec.phase ||
            r->quantaConsumed != rec.quanta ||
            r->schedClassRank != rec.classRank)
            return false;
        // A key that only fell moves its member up: every request
        // the walk skipped keeps at least the members it had ahead,
        // each now charging no less, so it still does not fit.
        double key = queueKey(r);
        if (key > rec.score)
            return false;
        r->schedScore = key;
    }
    // Members may still overtake each other (ties at a clamp, unequal
    // noise factors), and the decode list order drives the engine's
    // callback order.
    for (std::size_t i = 1; i < prev.decode.size(); ++i) {
        if (!keysInOrder(prev.decode[i - 1], prev.decode[i]))
            return false;
    }
    return true;
}

void
IntraScheduler::noteKeyChanged(workload::Request* req)
{
    if (!incremental || !req->schedInResidentList)
        return;
    evictOrder.markDirty(req);
}

bool
IntraScheduler::revalidate(const IterationPlan& prev,
                           const model::KvPool& pool) const
{
    if (lastDecodeCapped.size() != prev.decode.size())
        return false;
    TokenCount budget = pool.gpuCapacity();
    TokenCount high =
        lastHighBudgetCap >= 0 ? lastHighBudgetCap : budget;
    for (std::size_t i = 0; i < prev.decode.size(); ++i) {
        const auto* r = prev.decode[i];
        TokenCount cost = pool.chargeFor(r->kvTokens() + 1);
        bool capped = lastDecodeCapped[i] != 0;
        TokenCount avail = capped ? std::min(budget, high) : budget;
        if (cost > avail)
            return false;
        budget -= cost;
        if (capped)
            high -= cost;
    }
    // Unselected residents were kept, not evicted; they still must
    // fit in the leftover (their own KV did not grow — they did not
    // run — but the decode batch's growth shrank the leftover).
    for (const auto* r : lastKeptResidents) {
        TokenCount cost = pool.chargeFor(r->kvTokens());
        if (cost > budget)
            return false;
        budget -= cost;
    }
    return true;
}

void
IntraScheduler::greedySelectInto(
    const std::vector<workload::Request*>& order,
    const model::KvPool& pool, bool stop_at_unfit, IterationPlan& out,
    std::size_t high_prefix_len, TokenCount high_budget_cap)
{
    auto split = order.begin() +
                 static_cast<std::ptrdiff_t>(high_prefix_len);
    greedySelectRanges(order.begin(), split, split, order.end(),
                       high_prefix_len > 0, high_budget_cap, pool,
                       stop_at_unfit, out);
}

void
IntraScheduler::finishGreedySelect(const model::KvPool& pool,
                                   IterationPlan& out,
                                   TokenCount leftover_budget)
{
    std::vector<workload::Request*>& unselected_residents =
        lastKeptResidents;

    // Unselected residents stay resident while the leftover budget
    // covers them (they simply skip this iteration); the rest are
    // evicted, lowest priority first. The record is already in walk
    // priority order end to end (the early-exit tail comes from the
    // maintained eviction-order structure pre-sorted), so the evicted
    // set and the swapOut sequence are byte-identical to the full
    // walk's with no re-sort.
    TokenCount total_keep_cost = 0;
    for (const auto* r : unselected_residents)
        total_keep_cost += pool.chargeFor(r->kvTokens());
    if (total_keep_cost > leftover_budget) {
        TokenCount keep_budget = leftover_budget;
        std::size_t kept = 0;
        for (auto* r : unselected_residents) {
            TokenCount keep_cost = pool.chargeFor(r->kvTokens());
            if (keep_cost <= keep_budget) {
                keep_budget -= keep_cost;
                unselected_residents[kept++] = r;
            } else {
                out.swapOut.push_back(r);
            }
        }
        unselected_residents.resize(kept); // Record: residents kept.
    }

    if (!out.prefill.empty() && !limits.chunkedPrefill) {
        // Prefill iterations do not decode (vLLM prefill priority).
        // Selected decode candidates stay resident and run next
        // iteration; swap-ins still execute so they are ready. The
        // displaced members join the kept-resident record so the
        // engine's lazy-accrual restamp covers them (never reused:
        // reusePlan requires an empty prefill list).
        for (auto* r : out.decode)
            unselected_residents.push_back(r);
        out.decode.clear();
        lastDecodeCapped.clear();
        lastDecodeKeys.clear();
    } else {
        // Prewarmed requests join the decode batch immediately: their
        // KV allocation is free of charge. Under chunked prefill the
        // decode batch additionally runs alongside the prefills.
        for (auto* r : out.prewarm)
            out.decode.push_back(r);
    }
}

} // namespace core
} // namespace pascal
