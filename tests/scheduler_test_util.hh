/**
 * @file
 * Shared fixtures for scheduler unit tests: build requests in chosen
 * exec states against a KV pool. With a scheduler attached, every
 * mutation of a request it hosts is reported to it the way the engine
 * reports it (the dirty-set contract in intra_scheduler.hh).
 */

#ifndef PASCAL_TESTS_SCHEDULER_TEST_UTIL_HH
#define PASCAL_TESTS_SCHEDULER_TEST_UTIL_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/intra_scheduler.hh"
#include "src/model/kv_pool.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace test
{

/** Owns requests and a pool; wires them into a scheduler. */
class SchedulerHarness
{
  public:
    /** @param sched Optional scheduler to notify of every mutation of
     *  a request it hosts (not owned). */
    explicit SchedulerHarness(TokenCount capacity,
                              core::IntraScheduler* sched = nullptr)
        : pool(capacity), sched(sched)
    {}

    /**
     * Create a request hosted on the instance.
     *
     * @param id Request id (also used as arrival tiebreak).
     * @param arrival Arrival time.
     * @param prompt Prompt tokens.
     * @param reasoning Reasoning tokens (0 + start_in_answering for
     *        Fig. 5 style requests).
     * @param answer Answer tokens.
     */
    workload::Request*
    make(RequestId id, Time arrival, TokenCount prompt,
         TokenCount reasoning, TokenCount answer,
         bool start_in_answering = false)
    {
        workload::RequestSpec s;
        s.id = id;
        s.arrival = arrival;
        s.promptTokens = prompt;
        s.reasoningTokens = reasoning;
        s.answerTokens = answer;
        s.startInAnswering = start_in_answering;
        owned.push_back(std::make_unique<workload::Request>(s));
        auto* r = owned.back().get();
        r->exec = workload::ExecState::WaitingNew;
        return r;
    }

    /** Simulate a completed prefill: resident KV, first token done. */
    void
    makeResident(workload::Request* r, TokenCount quantum = 0)
    {
        if (!r->spec().startInAnswering) {
            r->completePrefill(r->spec().arrival, quantum);
            r->kvSlot = pool.allocGpu(r->id(), r->kvTokens());
        } else {
            r->prefillDone = true;
            r->kvSlot = pool.allocGpu(r->id(), r->spec().promptTokens);
        }
        r->exec = workload::ExecState::ResidentGpu;
        if (hosted(r)) {
            sched->noteResidency(r);
            if (!r->spec().startInAnswering)
                sched->noteExecuted(r); // Prefill emitted a token.
        }
    }

    /** Advance a resident request by @p n decode tokens. */
    void
    decodeTokens(workload::Request* r, TokenCount n, Time t,
                 TokenCount quantum = 0)
    {
        for (TokenCount i = 0; i < n; ++i) {
            pool.growGpu(r->kvSlot, 1);
            r->emitToken(t, quantum);
            if (hosted(r))
                sched->noteExecuted(r);
        }
    }

    /** Swap a resident request out to CPU. */
    void
    swapOut(workload::Request* r)
    {
        pool.moveToCpu(r->kvSlot);
        r->exec = workload::ExecState::SwappedCpu;
        if (hosted(r))
            sched->noteResidency(r);
    }

    /** True if @p r appears in @p list. */
    static bool
    contains(const std::vector<workload::Request*>& list,
             const workload::Request* r)
    {
        return std::find(list.begin(), list.end(), r) != list.end();
    }

    model::KvPool pool;
    std::vector<std::unique_ptr<workload::Request>> owned;

  private:
    /** True if the attached scheduler hosts @p r (requests mutated
     *  before their add() need no report: add() reads them whole). */
    bool
    hosted(const workload::Request* r) const
    {
        return sched != nullptr && sched->isHosted(r);
    }

    core::IntraScheduler* sched;
};

} // namespace test
} // namespace pascal

#endif // PASCAL_TESTS_SCHEDULER_TEST_UTIL_HH
