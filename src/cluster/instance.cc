#include "src/cluster/instance.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace cluster
{

using workload::BucketKind;
using workload::ExecState;
using workload::Phase;
using workload::Request;

namespace
{

/** Double-allocation guard (the slot-keyed pool cannot detect it
 *  itself): a request must not already hold KV when the engine
 *  allocates for it. */
void
checkNoKv(const Request* r)
{
    if (r->kvSlot != model::kNoKvSlot) {
        panic("request " + std::to_string(r->id()) +
              " already holds KV slot " + std::to_string(r->kvSlot) +
              " (double allocation)");
    }
}

} // namespace

Instance::Instance(InstanceId id, sim::Simulator& sim,
                   const model::PerfModel& perf,
                   std::unique_ptr<core::IntraScheduler> sched,
                   TokenCount kv_capacity_tokens,
                   const qoe::SloConfig& slo, InstanceCallbacks callbacks,
                   TokenCount kv_block_size_tokens)
    : instanceId(id),
      sim(sim),
      perf(perf),
      sched(std::move(sched)),
      kvPool(kv_capacity_tokens, kv_block_size_tokens),
      callbacks(std::move(callbacks)),
      pcie(sim, perf.hardwareConfig().effPcieBandwidth(),
           "pcie-" + std::to_string(id)),
      monitor(slo)
{
    if (this->sched == nullptr)
        panic("Instance needs a scheduler");
    this->sched->setInstanceId(id);
    // The steady-state plan-reuse fast path. The scheduler ignores it
    // under its force-resort twin (SchedLimits::forceResort or the
    // PASCAL_FORCE_RESORT env var), which rebuilds every queue at
    // every boundary.
    this->sched->enableIncremental();
    // Accrual debug mode: keep the eager O(hosted) walk as a
    // per-iteration stamp verification (construction-time read, like
    // the scheduler's twin).
    verifyAccrual = this->sched->schedLimits().forceAccrue ||
                    std::getenv("PASCAL_FORCE_ACCRUE") != nullptr;
    batch.setEager(verifyAccrual);
}

void
Instance::admit(Request* req)
{
    // A failover re-admission arrives InTransit with a live accrual
    // cursor (the crash/retry wait since detach); settle it before
    // switching to Blocked so the backoff interval stays booked.
    // Fresh arrivals just reset the cursor.
    if (req->exec == ExecState::InTransit)
        req->stampAccrual(sim.now(), BucketKind::Blocked);
    else
        req->resetAccrual(sim.now(), BucketKind::Blocked);
    req->exec = ExecState::WaitingNew;
    req->home = instanceId;
    req->kvSlot = model::kNoKvSlot;
    sched->add(req);
    // startInAnswering arrivals begin their TTFAT countdown the
    // moment they are admitted.
    monitor.park(req);
    if (trace != nullptr) {
        trace->instant(obs::TraceCat::Admission, obs::TraceName::Admit,
                       instanceId, sim.now(), obs::TraceArg::Request,
                       static_cast<std::int64_t>(req->id()));
    }
}

void
Instance::addRequest(Request* req, bool defer_plan)
{
    admit(req);
    if (!defer_plan) {
        kick();
        return;
    }
    // Defer the plan boundary through the event queue: same-timestamp
    // events fire FIFO, so every member of the arrival burst is
    // admitted (and placed) before the first member's boundary runs.
    if (stepInFlight)
        return;
    sim.at(sim.now(), [this] {
        if (!stepInFlight)
            startIteration();
    });
}

void
Instance::landMigration(Request* req)
{
    // The in-transit interval counts as answering-phase preemption
    // (the stamp was set by detach on the source instance).
    req->settleAccrual(sim.now());
    req->home = instanceId;
    checkNoKv(req);
    if (kvPool.canAllocGpu(req->kvTokens())) {
        req->kvSlot = kvPool.allocGpu(req->id(), req->kvTokens());
        req->exec = ExecState::ResidentGpu;
        // Until the next plan boundary the request sits out whatever
        // step is already executing: pipeline overhead if that step
        // is a prefill pass, preemption otherwise (the same rule the
        // eager walk applies to residents outside the batch).
        req->accrualKind = stepInFlight && inflight.isPrefillIteration()
                               ? BucketKind::Executed
                               : BucketKind::Preempted;
    } else {
        req->kvSlot = kvPool.allocCpu(req->id(), req->kvTokens());
        req->exec = ExecState::SwappedCpu;
        req->accrualKind = BucketKind::Preempted;
    }
    sched->add(req);
    monitor.park(req);
    kick();
}

void
Instance::detach(Request* req)
{
    if (req->home != instanceId)
        panic("detach: request " + std::to_string(req->id()) +
              " not homed here");
    // Settle up to the detach point, then stamp the transit interval
    // as preemption (it lands in the answering phase: detach happens
    // at the observed </think> emission).
    if (DecodeBatch::contains(req))
        batch.leave(req);
    req->stampAccrual(sim.now(), BucketKind::Preempted);
    if (req->kvSlot != model::kNoKvSlot) {
        kvPool.release(req->kvSlot);
        req->kvSlot = model::kNoKvSlot;
    }
    sched->remove(req);
    monitor.remove(req);
    req->exec = ExecState::InTransit;
}

void
Instance::demoteBestEffort(Request* req)
{
    if (req->home != instanceId)
        panic("demoteBestEffort: request " + std::to_string(req->id()) +
              " not homed here");
    // Re-key through the scheduler's remove/add path: the class rank
    // is the leading comparator level in every policy's order, so the
    // queues must observe it as a key change — the same path a
    // migration landing takes.
    sched->remove(req);
    req->bestEffort = true;
    req->schedClassRank = workload::kBestEffortClassRank;
    sched->add(req);
    // The pacing targets just relaxed to the Batch class's: the SLO
    // monitor key must move with them.
    monitor.park(req);
    sloRepace = true;
}

void
Instance::noteDeadlineExpired(Request* req)
{
    // Deadline events that fire while a step is executing must not
    // mutate the in-flight plan's membership (completeIteration still
    // walks its vectors); park the request until the iteration
    // boundary and let the cluster's policy run there.
    deadlineDeferred.push_back(req);
}

void
Instance::drainDeadlineDeferred()
{
    // The cluster's handler kicks after each enforcement; a step
    // started mid-drain would make the hosted-expiry check re-park
    // every later entry into the vector being walked (unbounded
    // growth). Suppress kick() for the drain — completeIteration()
    // starts the next iteration right after, with every expiry
    // settled and the freed KV visible to the plan build.
    drainingDeadlines = true;
    // Every parked request goes back to the cluster's expiry rule,
    // wherever the step left it: still hosted, finished, or detached
    // for a migration or by a crash. Index loop: the handler can
    // re-enter (detach, fail, demote) but never appends here while
    // stepInFlight is false.
    for (std::size_t i = 0; i < deadlineDeferred.size(); ++i) {
        if (callbacks.onDeadlineExpired)
            callbacks.onDeadlineExpired(deadlineDeferred[i], instanceId);
    }
    deadlineDeferred.clear();
    drainingDeadlines = false;
}

void
Instance::kick()
{
    if (!stepInFlight && !drainingDeadlines)
        startIteration();
}

void
Instance::startIteration()
{
    // A down instance executes nothing; recover() kicks it back on.
    if (!up)
        return;
    // Steady-state fast path: when the scheduler observed no state
    // change since it built the in-flight plan (the dominant
    // decode-only regime), the previous plan is provably what a full
    // replan would produce — run it again verbatim.
    bool reused = sched->reusePlan(inflight, kvPool);
    if (reused) {
        ++planReuses;
        if (trace != nullptr) {
            trace->instant(obs::TraceCat::Plan,
                           obs::TraceName::PlanReuse, instanceId,
                           sim.now());
        }
    } else {
        sched->buildPlan(kvPool, inflight);
        ++planBuilds;
        if (trace != nullptr) {
            // The reason arg answers "why not verbatim reuse".
            trace->instant(obs::TraceCat::Plan,
                           obs::TraceName::PlanFullWalk, instanceId,
                           sim.now(), obs::TraceArg::Reason,
                           static_cast<std::int64_t>(
                               sched->lastReuseDecline()));
        }
    }
    const core::IterationPlan& plan = inflight;
    if (plan.idle())
        return;

    stepInFlight = true;
    Time t0 = sim.now();
    Time swaps_done = t0;
    stepStart = t0;
    const bool decodes = !plan.decode.empty();
    batch.beginStep(t0);
    if (!reused)
        reshapeBatch(plan, t0);

    // Evictions free GPU memory; the KV rides the PCIe link to host
    // DRAM. The iteration's compute cannot start until swap traffic
    // completes.
    for (auto* r : plan.swapOut) {
        r->stampAccrual(t0, BucketKind::Preempted);
        kvPool.moveToCpu(r->kvSlot);
        r->exec = ExecState::SwappedCpu;
        sched->noteResidency(r);
        Time done = pcie.submit(perf.kvBytes(r->kvTokens()), nullptr);
        swaps_done = std::max(swaps_done, done);
        ++swapOuts;
        if (trace != nullptr) {
            trace->instant(obs::TraceCat::Eviction,
                           obs::TraceName::Evict, instanceId, t0,
                           obs::TraceArg::Request,
                           static_cast<std::int64_t>(r->id()));
        }
    }
    for (auto* r : plan.swapIn) {
        r->stampAccrual(t0, BucketKind::Executed);
        kvPool.moveToGpu(r->kvSlot);
        r->exec = ExecState::ResidentGpu;
        sched->noteResidency(r);
        Time done = pcie.submit(perf.kvBytes(r->kvTokens()), nullptr);
        swaps_done = std::max(swaps_done, done);
        ++swapIns;
    }

    // Pre-generated KV (Fig. 5 characterization) appears without
    // prefill cost.
    for (auto* r : plan.prewarm) {
        r->stampAccrual(t0, BucketKind::Executed);
        checkNoKv(r);
        r->kvSlot = kvPool.allocGpu(r->id(), r->kvTokens());
        r->exec = ExecState::ResidentGpu;
        sched->noteResidency(r);
        r->prefillDone = true;
        if (r->firstScheduled < 0.0)
            r->firstScheduled = t0;
    }

    ++iterations;

    TokenCount prompt_tokens = 0;
    for (auto* r : plan.prefill) {
        r->stampAccrual(t0, BucketKind::Executed);
        // Prompt KV plus the slot for the first reasoning token the
        // prefill pass emits.
        checkNoKv(r);
        r->kvSlot = kvPool.allocGpu(r->id(), r->spec().promptTokens + 1);
        r->exec = ExecState::ResidentGpu;
        sched->noteResidency(r);
        if (r->firstScheduled < 0.0)
            r->firstScheduled = t0;
        prompt_tokens += r->spec().promptTokens;
        ++prefills;
    }

    // The decode batch is the plan's decode list: its growth is one
    // charge, its KV a running sum.
    TokenCount batch_kv = 0;
    if (decodes) {
        batch.growStep();
        if (verifyAccrual) {
            batch.verifyStep(plan.decode, instanceId);
            // The eager reference stamps the first answering step as
            // it starts; the fast path, at its first answering token.
            stampFirstAnswerSteps();
        }
        batch_kv = batch.kvSum();
    }

    // On a freshly built plan the not-running residents' standing
    // bucket can flip (batch exit, or pipeline overhead when a
    // prefill pass stalls the decode stream); the greedy walk already
    // recorded exactly those requests. Reused plans are pure decode
    // with an unchanged batch, so every stamp is already current —
    // steady-state iterations touch only the batch. A member a
    // prefill pass stalls stays in the batch, Executed, and its
    // stretch logs the stall.
    if (!reused) {
        BucketKind kept_kind = plan.isPrefillIteration()
                                   ? BucketKind::Executed
                                   : BucketKind::Preempted;
        for (auto* r : sched->keptResidents()) {
            if (!DecodeBatch::contains(r))
                r->stampAccrual(t0, kept_kind);
        }
    }

    // Scheduler contract: prefill and decode only coexist in chunked
    // mode (the default vLLM-style planner clears decode otherwise).
    Time latency = perf.mixedStepLatency(
        prompt_tokens, static_cast<int>(plan.decode.size()), batch_kv);
    // Straggler windows stretch compute; x1.0 is an exact no-op.
    latency *= perfScale;

    Time step_end = std::max(swaps_done, t0 + latency);
    if (batchDist != nullptr)
        batchDist->add(static_cast<double>(plan.decode.size()));
    if (trace != nullptr) {
        trace->complete(obs::TraceCat::Iteration,
                        obs::TraceName::Iteration, instanceId, t0,
                        step_end - t0, obs::TraceArg::Batch,
                        static_cast<std::int64_t>(plan.decode.size()));
    }
    // The completion event carries the crash generation it was
    // scheduled under: a crash abandons the step by bumping the
    // generation, turning the stale event into a no-op.
    sim.at(step_end, [this, gen = crashGen] {
        if (gen == crashGen)
            completeIteration();
    });
}

void
Instance::reshapeBatch(const core::IterationPlan& plan, Time t0)
{
    if (plan.decode.empty()) {
        // A prefill pass stalls the batch: its members wait, Executed,
        // unless evicted. Any other non-decoding step preempts them
        // all. Pacing members stall either way (SloMonitor::endStep).
        if (!plan.isPrefillIteration()) {
            batch.clear();
            return;
        }
        for (auto* r : plan.swapOut) {
            if (DecodeBatch::contains(r))
                batch.leave(r);
        }
        return;
    }
    batch.reshape(plan.decode, t0, sloSitOuts, sloJoins);
    // Leavers that were pacing sit this step out. Members that pace
    // but hold no pacing key join their pacing heap once they emit:
    // newcomers, and, after a step that parked pacing members without
    // a batch change (a stall, a best-effort demotion), anyone.
    auto keep = [](std::vector<Request*>& v, auto pred) {
        v.erase(std::remove_if(v.begin(), v.end(),
                               [&](Request* r) { return !pred(r); }),
                v.end());
    };
    keep(sloSitOuts, [this](Request* r) { return monitor.paces(r); });
    if (sloRepace) {
        sloJoins.assign(plan.decode.begin(), plan.decode.end());
        sloRepace = false;
    }
    keep(sloJoins, [this](Request* r) {
        return r->firstAnswer >= 0.0 && !monitor.paces(r);
    });
}

void
Instance::crash(bool preserve_cpu_kv,
                std::vector<Request*>& orphans)
{
    up = false;
    draining = false;
    ++crashGen; // Invalidate the in-flight step's completion event.
    if (stepInFlight && !inflight.decode.empty()) {
        // The abandoned step still was the first answering step of
        // the members that entered it answering.
        stampFirstAnswerSteps();
    }
    stepInFlight = false;
    sloJoins.clear();
    sloSitOuts.clear();
    // detach() mutates the scheduler's hosted set; walk a copy. The
    // hosted vector is swap-pop ordered, not insertion ordered, but
    // that order is a function of the event sequence alone, so the
    // orphan list — and every retry placement made from it — replays
    // byte-identically.
    scratchHosted.assign(sched->hosted().begin(),
                         sched->hosted().end());
    for (auto* r : scratchHosted) {
        if (preserve_cpu_kv && r->exec == ExecState::SwappedCpu) {
            // Host-DRAM KV survives the GPU loss: the request stays
            // hosted and resumes after recovery, accruing preempted
            // time while the instance is down.
            r->stampAccrual(sim.now(), BucketKind::Preempted);
            continue;
        }
        detach(r);
        orphans.push_back(r);
    }
    batch.abandonStep();
    // The crash ends the step, so the expiries it deferred meet the
    // class policy now: an orphan is flagged (or fails at its
    // requeue), a preserved request is demoted or failed in place.
    if (!deadlineDeferred.empty())
        drainDeadlineDeferred();
}

void
Instance::stampFirstAnswerSteps()
{
    for (auto* r : batch.members()) {
        if (r->phase() == Phase::Answering && r->firstAnswerScheduled < 0.0)
            r->firstAnswerScheduled = stepStart;
    }
}

void
Instance::settleBatch()
{
    // A step cut off mid-flight was its members' first answering step
    // as well (the engine stamps it at the first answering token).
    if (stepInFlight && !inflight.decode.empty())
        stampFirstAnswerSteps();
    batch.settleAll();
}

void
Instance::recover()
{
    up = true;
    kick();
}

void
Instance::setDraining(bool on)
{
    draining = on;
}

void
Instance::setPerfScale(double scale)
{
    perfScale = scale;
}

void
Instance::verifyAccrualStamps(bool prefill_iteration) const
{
    for (const auto* r : sched->hosted()) {
        BucketKind expect;
        if (DecodeBatch::contains(r)) {
            // Decoding, or stalled by a prefill pass.
            expect = BucketKind::Executed;
        } else if (r->exec == ExecState::WaitingNew) {
            expect = BucketKind::Blocked;
        } else if (r->exec == ExecState::ResidentGpu &&
                   prefill_iteration) {
            // Stalling resident decodes for a prefill pass is inherent
            // continuous-batching overhead, not a scheduling decision:
            // even the oracle pays it.
            expect = BucketKind::Executed;
        } else {
            // Excluded from a decode batch or swapped out: preempted.
            expect = BucketKind::Preempted;
        }
        if (r->accrualKind != expect) {
            panic("lazy accrual stamp stale for request " +
                  std::to_string(r->id()) + " on instance " +
                  std::to_string(instanceId) + ": stamped " +
                  std::to_string(static_cast<int>(r->accrualKind)) +
                  ", eager walk expects " +
                  std::to_string(static_cast<int>(expect)));
        }
    }
}

void
Instance::completeIteration()
{
    // The plan stays parked in `inflight` so the steady-state fast
    // path can run it again verbatim; the next startIteration()
    // rebuilds it only if the scheduler observed a state change.
    const core::IterationPlan& plan = inflight;
    Time now = sim.now();

    if (verifyAccrual)
        verifyAccrualStamps(plan.isPrefillIteration());

    TokenCount quantum = sched->schedLimits().quantum;

    // Emissions first (dirty-set contract: every mutation that can
    // move a key or counter is reported via noteExecuted before any
    // callback can observe the scheduler), then completions and phase
    // transitions. A prefill is always reported, and settles eagerly.
    for (auto* r : plan.prefill) {
        r->settleAccrual(now);
        r->completePrefill(now, quantum);
        sched->noteExecuted(r);
        // A one-token reasoning phase transitions at its prefill.
        monitor.park(r);
    }
    // The decode batch advances as a unit: each member's progress
    // moves by one token, and only the members at a wake get
    // per-member work: the scheduler's wake token (a quantum rollover,
    // </think>, completion, a policy rule's token; see
    // IntraScheduler::nextWake()) or the first answering token.
    // Everything else a token changes settles later from the step log.
    const bool decoded = !plan.decode.empty();
    woken.clear();
    const TokenCount quantum_step = quantum > 0 ? 1 : 0;
    // The eager reference twin books each member's step and token
    // right here instead, with the calls the log replays; its log
    // stays empty.
    if (verifyAccrual) {
        for (auto* r : plan.decode)
            r->settleAccrual(now);
    }
    for (auto* r : plan.decode) {
        if (r->advanceDecode(quantum_step))
            woken.push_back(r);
    }
    decodeTokens += plan.decode.size();
    batch.logStep(now, decoded);
    if (verifyAccrual) {
        for (auto* r : plan.decode)
            r->foldDecodedToken(now);
    }
    for (auto* r : woken) {
        r->rollQuantum(quantum);
        if (r->atMilestone()) {
            // Settle the stretch in the phase it ran, then stamp.
            batch.settle(r);
            if (r->generated() == r->spec().reasoningTokens + 1 &&
                r->firstAnswerScheduled < 0.0) {
                r->firstAnswerScheduled = stepStart;
            }
            r->stampMilestones(now);
        }
        if (core::IntraScheduler::wakeDue(r))
            sched->noteExecuted(r);
        monitor.onEmit(r);
    }
    // Pacing churn comes from the plan: members that rejoin their
    // pacing heap, and pacing members this step left out.
    for (auto* r : sloJoins)
        monitor.onEmit(r);
    for (auto* r : sloSitOuts)
        monitor.park(r);
    sloJoins.clear();
    sloSitOuts.clear();
    monitor.endStep(decoded);
    sloRepace = sloRepace || !decoded;

    auto handle = [&](Request* r) {
        if (r->finished()) {
            if (DecodeBatch::contains(r))
                batch.leave(r);
            kvPool.release(r->kvSlot);
            r->kvSlot = model::kNoKvSlot;
            r->exec = ExecState::Done;
            sched->remove(r);
            if (callbacks.onFinished)
                callbacks.onFinished(r, instanceId);
        } else if (r->reasoningEnd == now &&
                   !r->spec().startInAnswering &&
                   r->phase() == Phase::Answering) {
            // The </think> token was just observed: let the
            // instance-level scheduler place the answering phase. The
            // callback may detach the request for migration.
            if (callbacks.onPhaseTransition)
                callbacks.onPhaseTransition(r, instanceId);
        }
    };
    for (auto* r : plan.prefill)
        handle(r);
    for (auto* r : woken)
        handle(r);

    stepInFlight = false;
    // Deadlines that fired mid-step were parked; enforce them now that
    // the plan's vectors are no longer live, before the next boundary
    // builds a plan that could include the expired requests.
    if (!deadlineDeferred.empty())
        drainDeadlineDeferred();
    startIteration();
}

bool
Instance::answeringSloOk(Time now) const
{
    return monitor.answeringSloOk(now);
}

void
Instance::verifySloHeap(Time now) const
{
    monitor.verify(sched->hosted(), now, instanceId);
}

core::InstanceSnapshot
Instance::snapshot(Time now, bool predict_footprint) const
{
    core::InstanceSnapshot snap;
    snap.id = instanceId;
    snap.up = up && !draining;
    snap.answeringSloOk = answeringSloOk(now);
    snap.kvFootprintTokens = kvPool.totalFootprintTokens();
    snap.numReasoning = sched->numReasoning();
    snap.numFreshAnswering = sched->numFreshAnswering();
    snap.gpuFreeTokens = kvPool.gpuFree();
    snap.gpuCapacityTokens = kvPool.gpuCapacity();
    snap.predictedKvFootprintTokens = snap.kvFootprintTokens;
    if (predictor != nullptr && predict_footprint) {
        double growth = 0.0;
        // Insertion-order walk: the float sum depends on summation
        // order, so iterating the swap-pop hosted vector would let a
        // mere removal perturb the rounded footprint (and with it a
        // placement tie-break).
        for (const workload::Request* r = sched->hostedHead();
             r != nullptr; r = r->schedNextHosted) {
            if (r->finished())
                continue;
            growth += predictor->predictRemainingTokens(*r);
            // Queued arrivals own no pool KV yet, but their prompt
            // will be allocated the moment they prefill; without it a
            // burst of large-prompt arrivals keeps looking free and
            // predictive placement herds the burst onto one instance.
            if (r->exec == ExecState::WaitingNew)
                growth += static_cast<double>(r->spec().promptTokens);
        }
        snap.predictedKvFootprintTokens +=
            static_cast<TokenCount>(std::llround(growth));
    }
    return snap;
}

void
Instance::registerStats(obs::StatRegistry& reg,
                        const std::string& prefix)
{
    reg.counter(prefix + ".engine.iterations", &iterations);
    reg.counter(prefix + ".engine.decode_tokens", &decodeTokens);
    reg.counter(prefix + ".engine.prefills", &prefills);
    reg.counter(prefix + ".engine.swap_outs", &swapOuts);
    reg.counter(prefix + ".engine.swap_ins", &swapIns);
    reg.counter(prefix + ".plan.reuses", &planReuses);
    reg.counter(prefix + ".plan.builds", &planBuilds);
    // Every build is a full walk; the repo benchmark reads this name.
    reg.counter(prefix + ".plan.full_walks", &planBuilds);
    reg.counter(prefix + ".slo.rekeys",
                [this] { return monitor.numRekeys(); });
    reg.gauge(prefix + ".kv.gpu_capacity", [this] {
        return static_cast<double>(kvPool.gpuCapacity());
    });
    reg.gauge(prefix + ".kv.gpu_free", [this] {
        return static_cast<double>(kvPool.gpuFree());
    });
    reg.gauge(prefix + ".kv.peak_gpu_used", [this] {
        return static_cast<double>(kvPool.peakGpuUsed());
    });
    reg.gauge(prefix + ".kv.footprint_tokens", [this] {
        return static_cast<double>(kvPool.totalFootprintTokens());
    });
    reg.gauge(prefix + ".kv.gpu_resident", [this] {
        return static_cast<double>(kvPool.numGpuResident());
    });
    reg.gauge(prefix + ".kv.table_size", [this] {
        return static_cast<double>(kvPool.tableSize());
    });
    batchDist = &reg.distribution(prefix + ".batch.decode_size");
}

} // namespace cluster
} // namespace pascal
