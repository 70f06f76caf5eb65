#include "src/core/intra_scheduler.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
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

IntraScheduler::IntraScheduler(SchedLimits limits, bool keyed)
    : limits(limits),
      resortForced(limits.forceResort ||
                   std::getenv("PASCAL_FORCE_RESORT") != nullptr),
      keyed(keyed)
{
    limits.validate();
}

void
IntraScheduler::enableIncremental()
{
    reuseEnabled = !resortForced;
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
    // Another scheduler's key epoch means nothing here.
    req->schedKeyEpoch = 0;
    if (resortForced)
        return;
    // A migrated request carries stale bookkeeping from its previous
    // host; start from a clean slate.
    req->schedQueueTag = 0;
    req->schedDirtyPending = false;
    req->schedDemotionPending = false;
    req->schedCountedReasoning = false;
    req->schedCountedFreshAns = false;
    req->schedScore = 0.0;
    syncCounters(req);
    onHostedAdded(req);
    // A migrant's wake was set for its previous host's quantum.
    setWake(req);
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
    if (resortForced)
        return;
    if (req->schedCountedReasoning)
        --reasoningCount;
    if (req->schedCountedFreshAns)
        --freshAnsweringCount;
    req->schedCountedReasoning = false;
    req->schedCountedFreshAns = false;
    req->schedDemotionPending = false;
    onHostedRemoved(req);
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
    if (resortForced)
        return;
    // Right after an emission, the quantum rolled over exactly when
    // its token count wrapped to 0.
    const bool quanta_changed =
        limits.quantum > 0 && req->quantumTokens == 0;
    syncCounters(req);
    onRequestExecuted(req, quanta_changed);
    setWake(req);
}

TokenCount
IntraScheduler::nextWake(const workload::Request* req) const
{
    const TokenCount generated = req->generated();
    TokenCount wake = req->totalToGenerate();
    if (generated < req->spec().reasoningTokens)
        wake = std::min(wake, req->spec().reasoningTokens);
    if (limits.quantum > 0) {
        wake = std::min(wake,
                        generated + limits.quantum - req->quantumTokens);
    }
    return wake;
}

void
IntraScheduler::setWake(workload::Request* req) const
{
    constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
    const TokenCount wake = nextWake(req);
    req->schedWake = wake >= static_cast<TokenCount>(kMax)
                         ? kMax
                         : static_cast<std::uint32_t>(wake);
}

void
IntraScheduler::onRequestExecuted(workload::Request* req,
                                  bool quanta_changed)
{
    if (quanta_changed) {
        queue.markDirty(req);
        noteStateChanged();
    }
}

void
IntraScheduler::onPredictionsMoved()
{
    for (auto* r : requests)
        queueOf(r).markDirty(r);
}

bool
IntraScheduler::repairQueues()
{
    return queue.repair(rekey());
}

void
IntraScheduler::markMembersDirty(const IterationPlan& plan)
{
    for (auto* r : plan.prefill)
        queueOf(r).markDirty(r);
    for (auto* r : plan.decode)
        queueOf(r).markDirty(r);
}

void
IntraScheduler::rebuildQueues()
{
    queue.clear();
    for (auto* r : requests)
        queue.insert(r);
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
    return resortForced ? scanReasoning() : reasoningCount;
}

int
IntraScheduler::numFreshAnswering() const
{
    return resortForced ? scanFreshAnswering() : freshAnsweringCount;
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
    if (resortForced)
        rebuildQueues();
    else if (keyed && predictorVersion() != lastPredictorVersion)
        onPredictionsMoved();
    lastPredictorVersion = predictorVersion();
    planInto(pool, out);
    if (keyed && !resortForced)
        markMembersDirty(out);
    advanceKeyEpoch();
    stateChanged = false;
    lastPlanReusable =
        reuseEnabled && out.prefill.empty() && out.prewarm.empty() &&
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
    if (!reuseEnabled) {
        reuseDecline = PlanDecline::Inactive;
        return false;
    }
    if (!lastPlanReusable || stateChanged ||
        (keyed && !keyedOrderHolds(prev))) {
        reuseDecline = PlanDecline::StateChanged;
        return false;
    }
    // Deferred plan-time decisions (demotion) fire exactly here, at
    // the boundary a build would apply them, so their timing relative
    // to snapshots and callbacks matches the twin's.
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
    advanceKeyEpoch();
    return true;
}

bool
IntraScheduler::keyedOrderHolds(const IterationPlan& prev)
{
    // While the version holds, only the members ran since their keys
    // were recorded, so only their keys can have moved: an idle
    // request's prediction is a pure function of its own progress and
    // the predictor state. A moved version may move every key, so
    // every queue is re-keyed and repaired here, at this boundary; if
    // no member moved, the order the walk saw still holds.
    const bool bumped = predictorVersion() != lastPredictorVersion;
    if (bumped) {
        lastPredictorVersion = predictorVersion();
        onPredictionsMoved();
        if (repairQueues())
            return false; // The build walks the repaired queues.
    }
    const QueueOrder order{};
    for (std::size_t i = 0; i < prev.decode.size(); ++i) {
        workload::Request* r = prev.decode[i];
        DecodeKeys& rec = lastDecodeKeys[i];
        if (r->exec != workload::ExecState::ResidentGpu ||
            r->phase() != rec.phase ||
            r->quantaConsumed != rec.quanta ||
            r->schedClassRank != rec.classRank)
            return false;
        const double key = freshKey(r);
        if (bumped) {
            // Every key was just re-read and the whole order verified:
            // later boundaries compare against these.
            rec.score = key;
            continue;
        }
        // A key that only fell moves its member up: every request
        // the walk skipped keeps at least the members it had ahead,
        // each now charging no less, so it still does not fit.
        if (key > rec.score)
            return false;
        // Members may still overtake each other (ties at a clamp,
        // unequal noise factors), and the decode list order drives
        // the engine's callback order.
        if (i > 0 &&
            prev.decode[i - 1]->schedQueueTag == r->schedQueueTag &&
            !order(prev.decode[i - 1], r))
            return false;
    }
    // The repair consumed the members' dirty marks; they run again.
    if (bumped)
        markMembersDirty(prev);
    return true;
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
IntraScheduler::greedySelectRanges(OrderIt high_begin, OrderIt high_end,
                                   OrderIt low_begin, OrderIt low_end,
                                   bool cap_high,
                                   TokenCount high_budget_cap,
                                   const model::KvPool& pool,
                                   bool stop_at_unfit, IterationPlan& out)
{
    TokenCount budget = pool.gpuCapacity();
    TokenCount high_budget = cap_high ? high_budget_cap : budget;
    TokenCount prefill_tokens = 0;
    int batch = 0;
    bool stopped = false;
    const std::size_t gpu_total = pool.numGpuResident();
    const std::size_t cpu_total = pool.numTracked() - gpu_total;
    std::size_t residents_seen = 0;
    std::size_t swapped_seen = 0;
    std::vector<workload::Request*>& unselected_residents =
        lastKeptResidents; // Reused buffer; doubles as the record.
    unselected_residents.clear();
    lastDecodeCapped.clear();
    lastDecodeKeys.clear();
    lastHighBudgetCap = cap_high ? high_budget_cap : -1;

    OrderIt it = high_begin;
    OrderIt range_end = high_end;
    bool in_high = true;
    bool capped = cap_high;
    for (;;) {
        const bool full = stopped || batch >= limits.maxBatchSize;
        if (full && residents_seen == gpu_total &&
            swapped_seen == cpu_total)
            break; // Early exit: every KV holder has been accounted.
        if (it == range_end) {
            if (!in_high)
                break;
            in_high = false;
            capped = false;
            it = low_begin;
            range_end = low_end;
            continue;
        }
        workload::Request* r = *it++;
        if (!schedulable(r))
            continue;
        bool resident = r->exec == workload::ExecState::ResidentGpu;
        if (resident)
            ++residents_seen;
        else if (r->exec == workload::ExecState::SwappedCpu)
            ++swapped_seen;

        if (full) {
            if (resident)
                unselected_residents.push_back(r);
            continue;
        }

        // Effective budget: capped (high-queue) candidates may not eat
        // into the memory reserved for the low queue.
        TokenCount avail = capped ? std::min(budget, high_budget) : budget;
        bool admitted = false;
        TokenCount cost = 0;
        switch (r->exec) {
          case workload::ExecState::WaitingNew: {
            cost = pool.chargeFor(r->spec().promptTokens + 1);
            bool prewarm = r->spec().startInAnswering;
            bool caps_ok =
                prewarm ||
                (static_cast<int>(out.prefill.size()) <
                     limits.maxPrefillSeqs &&
                 prefill_tokens + r->spec().promptTokens <=
                     limits.maxPrefillTokens);
            if (!caps_ok || cost > avail) {
                stopped = stop_at_unfit;
                break;
            }
            admitted = true;
            if (prewarm) {
                out.prewarm.push_back(r);
            } else {
                out.prefill.push_back(r);
                prefill_tokens += r->spec().promptTokens;
            }
            break;
          }
          case workload::ExecState::ResidentGpu: {
            cost = pool.chargeFor(r->kvTokens() + 1);
            if (cost > avail) {
                unselected_residents.push_back(r);
                stopped = stop_at_unfit;
                break;
            }
            admitted = true;
            out.decode.push_back(r);
            recordDecode(r, capped);
            break;
          }
          case workload::ExecState::SwappedCpu: {
            cost = pool.chargeFor(r->kvTokens() + 1);
            if (cost > avail) {
                stopped = stop_at_unfit;
                break;
            }
            admitted = true;
            out.swapIn.push_back(r);
            out.decode.push_back(r);
            recordDecode(r, capped);
            break;
          }
          default:
            panic("greedySelect: unexpected exec state");
        }
        if (admitted) {
            budget -= cost;
            if (capped)
                high_budget -= cost;
            ++batch;
        }
    }
    finishGreedySelect(pool, out, budget);
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
    // evicted, lowest priority first: the record is in walk priority
    // order.
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
