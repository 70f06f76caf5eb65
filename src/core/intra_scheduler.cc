#include "src/core/intra_scheduler.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace core
{

namespace
{
const char* const kPlanDeclineNames[] = {
    "none",           // PlanDecline::None
    "inactive",       // PlanDecline::Inactive
    "state_changed",  // PlanDecline::StateChanged
    "veto",           // PlanDecline::Veto
    "budget",         // PlanDecline::Budget
    "waiting_work",   // PlanDecline::WaitingWork
    "swapped_members",// PlanDecline::SwappedMembers
    "bailed",         // PlanDecline::Bailed
    "batch_limit",    // PlanDecline::BatchLimit
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
    if (resortForced || keysUsePredictions())
        return;
    if (!requests.empty())
        panic("enableIncremental: must be called before requests are "
              "added");
    incremental = true;
    stateChanged = true;
    lastPlanReusable = false;
    // The plan-repair force twin backs off only the repair leg;
    // queues, counters, and plan reuse stay incremental.
    repairDisabled = std::getenv("PASCAL_FORCE_REPAIR") != nullptr ||
                     limits.forcePlanRepair;
    lastPlanRepairable = false;
}

void
IntraScheduler::add(workload::Request* req)
{
    if (req == nullptr)
        panic("IntraScheduler::add(nullptr)");
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
    req->schedRepairState = kRepairNone;
    req->schedRepairSplice = false;
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
    noteStateChanged();
    onHostedAdded(req);
    // Journal entries for material landings are made by noteResidency
    // (called above, before the state resets): it is the single point
    // where a request gains KV on this instance — migration landings
    // here, prefill/prewarm allocations in the engine. WaitingNew
    // landings need no entry: a non-empty waiting set fails repair
    // eligibility by itself.
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
        noteStateChanged();
        if (repairActive()) {
            if (req->schedRepairState == kRepairInsert) {
                // Landed and departed within one lineage: cancel the
                // pending insert instead of journaling an erase (the
                // member never joined the batch).
                for (auto it = repairJournal.rbegin();
                     it != repairJournal.rend(); ++it) {
                    if (it->req == req && it->op == kRepairInsert) {
                        it->op = kRepairNone;
                        break;
                    }
                }
                req->schedRepairState = kRepairNone;
            } else if (req->schedInResidentList) {
                // Departing batch member: record its histogram bucket
                // now — the entry must stay valid even if the request
                // is re-hosted (and keeps growing) elsewhere. Having
                // executed planAge + 1 times since its bucket was
                // recorded, its build-time offset is kv - planAge - 1
                // (mod block).
                req->schedRepairState = kRepairNone;
                std::int64_t block =
                    static_cast<std::int64_t>(lastBlockSize);
                std::int64_t v =
                    static_cast<std::int64_t>(req->kvTokens()) -
                    static_cast<std::int64_t>(planAge) - 1;
                repairJournal.push_back(
                    {req, kRepairErase,
                     static_cast<std::uint32_t>(((v % block) + block) %
                                                block)});
            }
        }
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
    bool material =
        req->exec == workload::ExecState::ResidentGpu ||
        req->exec == workload::ExecState::SwappedCpu;
    if (material && !req->schedInResidentList) {
        req->schedInResidentList = true;
        if (incremental) {
            // Deferred link: the eviction-order key is read at the
            // next build's repair(), after any same-boundary re-keys.
            evictOrder.insert(req);
            if (repairActive()) {
                if (req->exec == workload::ExecState::ResidentGpu &&
                    req->schedRepairState == kRepairNone) {
                    // GPU KV appeared mid-lineage (migration landing,
                    // prefill or prewarm allocation during an
                    // excursion): patchable — merge it into the
                    // decode batch at its rank at the next boundary.
                    req->schedRepairState = kRepairInsert;
                    repairJournal.push_back({req, kRepairInsert, 0});
                } else if (req->exec ==
                           workload::ExecState::SwappedCpu) {
                    // A swapped landing needs a swap-in decision the
                    // patch path cannot make; only a full walk can.
                    repairBail = true;
                }
            }
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
    // A walk does not by itself end a patchable lineage: whether it
    // does depends on the plan it produces (see the excursion test
    // below), so the journal is cleared at the end, not here.
    bool lineage_alive = repairActive();
    if (incremental) {
        lastKeptResidents.clear();
        lastDecodeCapped.clear();
        lastHighBudgetCap = -1;
    }
    planInto(pool, out);
    if (!incremental)
        return;
    stateChanged = false;
    lastPlanReusable =
        out.prefill.empty() && out.prewarm.empty() &&
        out.swapIn.empty() && out.swapOut.empty() &&
        !out.decode.empty() &&
        lastDecodeCapped.size() == out.decode.size();
    if (lineage_alive && out.decode.empty() && out.swapIn.empty() &&
        out.swapOut.empty() &&
        (!out.prefill.empty() || !out.prewarm.empty())) {
        // Prefill/prewarm excursion: the walk only admits new prompts
        // — no decode member runs this iteration, so every basis
        // member's KV (and with it the lineage's histogram, age and
        // journal) is untouched, and the lineage stays patchable. The
        // newly resident members journal their own inserts from
        // noteResidency when the engine applies this plan, exactly
        // like migration landings.
        lastPlanRepairable = true;
        return;
    }
    planAge = 0;
    if (lastPlanReusable && lastHighBudgetCap < 0) {
        auto block = static_cast<std::size_t>(pool.blockSize());
        blockOffsetHist.assign(block, 0);
        for (const auto* r : out.decode) {
            ++blockOffsetHist[static_cast<std::size_t>(
                r->kvTokens() % pool.blockSize())];
        }
    }
    clearRepairJournal();
    // A patchable lineage: uncapped pure decode with every material
    // member selected (no kept residents), so the histogram is the
    // whole budget story and membership deltas are the whole batch
    // story. The force twin keeps the journal dark instead.
    lastPlanRepairable = !repairDisabled && lastPlanReusable &&
                         lastHighBudgetCap < 0 &&
                         lastKeptResidents.empty();
    if (lastPlanRepairable)
        basisDecode.assign(out.decode.begin(), out.decode.end());
    lastBlockSize = pool.blockSize();
}

bool
IntraScheduler::reusePlan(const IterationPlan& prev,
                          const model::KvPool& pool)
{
    reuseDecline = PlanDecline::None;
    if (!incremental) {
        reuseDecline = PlanDecline::Inactive;
        return false;
    }
    if (!lastPlanReusable || stateChanged) {
        reuseDecline = PlanDecline::StateChanged;
        return false;
    }
    // Deferred plan-time decisions (demotion) fire exactly here, the
    // same point recompute mode applies them, so their timing relative
    // to snapshots and callbacks is identical in both modes.
    if (reuseVeto()) {
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

void
IntraScheduler::noteKeyChanged(workload::Request* req)
{
    if (!incremental || !req->schedInResidentList)
        return;
    evictOrder.markDirty(req);
    if (repairActive() && req->schedRepairState == kRepairNone) {
        // First key move of this lineage; later moves ride the same
        // entry (the merge reads keys at patch time), and a pending
        // insert already re-reads its key too.
        req->schedRepairState = kRepairRekey;
        repairJournal.push_back({req, kRepairRekey, 0});
    }
}

void
IntraScheduler::clearRepairJournal()
{
    for (auto& e : repairJournal) {
        // Erase entries' requests may already be journaled by a new
        // host — their state belongs to that scheduler now. (A
        // request that round-tripped back shows up in a later entry
        // of our own journal and is cleared through it.)
        if (e.op != kRepairErase && isHosted(e.req))
            e.req->schedRepairState = kRepairNone;
    }
    repairJournal.clear();
    repairBail = false;
    lastPlanRepairable = false;
}

bool
IntraScheduler::repairPlan(IterationPlan& prev,
                           const model::KvPool& pool)
{
    repairDecline = PlanDecline::None;
    if (!repairActive()) {
        repairDecline = repairBail ? PlanDecline::Bailed
                                   : PlanDecline::Inactive;
        return false;
    }
    // Deferred plan-time decisions (PASCAL's demotions) fire at every
    // boundary in recompute mode; reusePlan's veto only reaches them
    // when its earlier gates pass, so re-run them here. Idempotent,
    // and any applied demotion journals its own re-key.
    applyDeferredDecisions();
    if (repairBail || !waitingPrompts.empty() ||
        waitingPrewarmCount > 0 ||
        pool.numTracked() != pool.numGpuResident()) {
        repairDecline =
            repairBail ? PlanDecline::Bailed
            : (!waitingPrompts.empty() || waitingPrewarmCount > 0)
                ? PlanDecline::WaitingWork
                : PlanDecline::SwappedMembers;
        return false;
    }

    // Fold the journal into the histogram and collect the patch. At
    // this boundary the lineage has run planAge times and is about to
    // run again (k-th execution), so a member whose KV is kv now
    // behaves like a build-time member with offset kv - k (mod B).
    const std::uint64_t k = planAge + 1;
    const std::int64_t block = static_cast<std::int64_t>(lastBlockSize);
    repairPatch.clear();
    eraseScratch.clear();
    std::int64_t batch = static_cast<std::int64_t>(basisDecode.size());
    for (auto& e : repairJournal) {
        switch (e.op) {
          case kRepairErase:
            // Self-contained: bucket recorded at remove time, member
            // guaranteed present in the basis (repairable builds
            // select every material member). Never dereferenced — the
            // departed request's arena slot may already host an
            // unrelated arrival — so the splice goes by pointer
            // identity.
            --blockOffsetHist[e.histIdx];
            eraseScratch.push_back(e.req);
            --batch;
            break;
          case kRepairRekey: {
            // Stale once the member departed (its state was reset at
            // remove; a new host may even have re-journaled it).
            if (e.req->schedRepairState != kRepairRekey ||
                !isHosted(e.req))
                break;
            e.req->schedRepairState = kRepairNone;
            e.req->schedRepairSplice = true;
            repairPatch.push_back(e.req);
            // No histogram move: the member stays in the batch and
            // keeps growing one token per iteration.
            break;
          }
          case kRepairInsert: {
            if (e.req->schedRepairState != kRepairInsert ||
                !isHosted(e.req))
                break;
            e.req->schedRepairState = kRepairNone;
            std::int64_t v =
                static_cast<std::int64_t>(e.req->kvTokens()) -
                static_cast<std::int64_t>(k);
            ++blockOffsetHist[static_cast<std::size_t>(
                ((v % block) + block) % block)];
            repairPatch.push_back(e.req);
            ++batch;
            break;
          }
          default:
            break; // Cancelled insert.
        }
    }
    repairJournal.clear();

    // Exact budget + cap check over the patched batch: under the
    // eligibility conditions every material member is in the batch,
    // so the full walk's admission total is exactly
    // gpuUsed + block * crossings — if it fits, the walk admits
    // everyone in eviction-priority order with no evictions, which is
    // precisely the merged batch below.
    const std::uint64_t kb = k % static_cast<std::uint64_t>(block);
    const std::size_t cross_idx = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(block) - kb) %
        static_cast<std::uint64_t>(block));
    const std::uint64_t crossings = blockOffsetHist[cross_idx];
    if (batch <= 0 ||
        batch > static_cast<std::int64_t>(limits.maxBatchSize) ||
        pool.gpuUsed() + static_cast<TokenCount>(block) *
                             static_cast<TokenCount>(crossings) >
            pool.gpuCapacity()) {
        repairDecline =
            (batch <= 0 ||
             batch > static_cast<std::int64_t>(limits.maxBatchSize))
                ? PlanDecline::BatchLimit
                : PlanDecline::Budget;
        // Bail to the full walk: clear the transient splice marks —
        // every flagged member is in the patch (erases are flagless)
        // — and let buildPlan rebuild the moot half-patched
        // histogram.
        for (auto* r : repairPatch)
            r->schedRepairSplice = false;
        lastPlanRepairable = false;
        return false;
    }

    // Splice + ordered merge against the scheduler-held basis (the
    // caller's plan may be a prefill excursion whose decode is
    // empty): patch members re-enter at their current
    // ResidentEvictOrder rank; surviving members are already sorted
    // under their (unmoved) keys.
    std::sort(repairPatch.begin(), repairPatch.end(),
              ResidentEvictOrder{});
    std::less<const workload::Request*> addr_less{};
    std::sort(eraseScratch.begin(), eraseScratch.end(), addr_less);
    decodeScratch.clear();
    ResidentEvictOrder less{};
    auto pi = repairPatch.begin();
    for (auto* r : basisDecode) {
        if (r->schedRepairSplice) {
            r->schedRepairSplice = false;
            continue;
        }
        if (!eraseScratch.empty() &&
            std::binary_search(eraseScratch.begin(),
                               eraseScratch.end(),
                               static_cast<const workload::Request*>(r),
                               addr_less))
            continue;
        while (pi != repairPatch.end() && less(*pi, r))
            decodeScratch.push_back(*pi++);
        decodeScratch.push_back(r);
    }
    while (pi != repairPatch.end())
        decodeScratch.push_back(*pi++);
    prev.reset();
    prev.decode.swap(decodeScratch);
    basisDecode.assign(prev.decode.begin(), prev.decode.end());

    // The patched plan is byte-for-byte what buildPlan would emit, so
    // the lineage continues — and is again a reusable pure-decode
    // plan, even when the boundary followed an excursion. Kept
    // residents are cleared: the patched batch holds every material
    // member, so there is nothing for the engine to restamp.
    // (lastDecodeCapped is left stale on purpose — it is only ever
    // consulted when lastHighBudgetCap >= 0, which a repairable
    // lineage excludes.)
    lastPlanReusable = true;
    lastKeptResidents.clear();
    stateChanged = false;
    ++planAge;
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
