#include "src/cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace cluster
{

Cluster::Cluster(sim::Simulator& sim, const SystemConfig& cfg)
    : sim(sim), cfg(cfg), perf(cfg.model, cfg.hardware)
{
    this->cfg.validate();

    TokenCount base = cfg.gpuKvCapacityTokens > 0
                          ? cfg.gpuKvCapacityTokens
                          : perf.gpuKvCapacityTokens();
    kvCapacity = static_cast<TokenCount>(
        std::llround(static_cast<double>(base) * cfg.kvCapacityFraction));
    if (kvCapacity <= 0)
        fatal("Cluster: resolved KV capacity is not positive");

    predictor = predict::makePredictor(cfg.predictor);
    placement = makePlacement(cfg.placement);
    placement->setPredictor(predictor.get());

    InstanceCallbacks callbacks;
    callbacks.onPhaseTransition = [this](workload::Request* r,
                                         InstanceId from) {
        onPhaseTransition(r, from);
    };
    // Completions are the online predictors' training signal; feeding
    // them from the cluster (not per instance) lets one predictor
    // learn from the whole deployment.
    callbacks.onFinished = [this](workload::Request* r, InstanceId) {
        if (predictor)
            predictor->observeCompletion(*r);
        if (classesOn) {
            ++classCompletedCount[workload::sloClassIndex(
                r->spec().sloClass)];
        }
        noteRequestFinished(r);
    };
    // Deadline expiries deferred past an in-flight step re-enter the
    // class policy at the iteration boundary through this hook.
    callbacks.onDeadlineExpired = [this](workload::Request* r,
                                         InstanceId) {
        enforceExpiry(r);
    };
    classesOn = cfg.sloClasses.enabled;

    if (cfg.telemetry.traceEnabled) {
        trace =
            std::make_unique<obs::TraceSink>(cfg.telemetry.traceCapacity);
        trace->setReasonTable(core::planDeclineNames(),
                              core::numPlanDeclineNames());
    }
    if (cfg.telemetry.streamingMetrics) {
        // Streaming implies recycling: the sketch is what makes
        // retiring a chunk lossless for the aggregate report.
        chunkRecycling = true;
        streaming = std::make_unique<obs::StreamingMetrics>();
    }

    instances.reserve(cfg.numInstances);
    ingress.reserve(cfg.numInstances);
    view.resize(cfg.numInstances);
    for (InstanceId i = 0; i < cfg.numInstances; ++i) {
        instances.push_back(std::make_unique<Instance>(
            i, sim, perf, makeScheduler(cfg.scheduler, cfg.limits),
            kvCapacity, cfg.slo, callbacks, cfg.kvBlockSizeTokens));
        instances.back()->setSloClassConfig(cfg.sloClasses);
        instances.back()->setPredictor(
            predictor.get(),
            cfg.placement == PlacementType::PascalPredictive);
        ingress.push_back(std::make_unique<model::Link>(
            sim, cfg.hardware.effFabricBandwidth(),
            "fabric-ingress-" + std::to_string(i)));
    }

    if (cfg.fault.enabled) {
        // The injector only generates the seeded fault schedule; every
        // reaction routes back through the cluster's failover path.
        fault::FaultHooks hooks;
        hooks.onCrash = [this](InstanceId id) { crashInstance(id); };
        hooks.onRecover = [this](InstanceId id) { recoverInstance(id); };
        hooks.onDrainStart = [this](InstanceId id) { startDrain(id); };
        hooks.onDrainDeadline = [this](InstanceId id) {
            finishDrain(id);
        };
        hooks.onStragglerStart = [this](InstanceId id, double f) {
            setStraggler(id, f);
        };
        hooks.onStragglerEnd = [this](InstanceId id) {
            setStraggler(id, 1.0);
        };
        hooks.anyWorkLeft = [this] { return liveRequests > 0; };
        injector = std::make_unique<fault::FaultInjector>(
            sim, cfg.fault, cfg.numInstances, std::move(hooks));
    }

    // Stat registry: cluster-level rollups first, then one subtree
    // per instance. Registration order is dump order, so the dump is
    // deterministic by construction.
    registry.counter("cluster.view.refreshes", &viewRefreshes);
    registry.counter("cluster.view.builds", &viewBuilds);
    registry.counter("cluster.migrations", &migrations);
    registry.counter("cluster.recycled_chunks", [this] {
        return static_cast<std::uint64_t>(requests.numRecycledChunks());
    });
    registry.counter("cluster.plan.builds", [this] {
        std::uint64_t n = 0;
        for (const auto& inst : instances)
            n += inst->numPlanBuilds();
        return n;
    });
    registry.counter("cluster.slo.rekeys", [this] {
        std::uint64_t n = 0;
        for (const auto& inst : instances)
            n += inst->numSloHeapRekeys();
        return n;
    });
    // Failure accounting: registered unconditionally (all-zero rows
    // when the fault layer is off) so dashboards and the bench JSON
    // emitters see a stable schema.
    registry.counter("cluster.fault.crashes", &numCrashesCount);
    registry.counter("cluster.fault.drains", &numDrainsCount);
    registry.counter("cluster.fault.straggler_windows",
                     &stragglerWindowsCount);
    registry.counter("cluster.fault.link_failures", &linkFailuresCount);
    registry.counter("cluster.fault.retries", &retriesCount);
    registry.counter("cluster.fault.shed", &shedCount);
    registry.counter("cluster.fault.terminal_failures",
                     &terminalFailuresCount);
    // SLO-class accounting: registered unconditionally (all-zero rows
    // when the class layer is off) for the same stable-schema reason.
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        std::string p = std::string("cluster.slo.") +
                        workload::sloClassName(
                            static_cast<workload::SloClass>(c));
        registry.counter(p + ".submitted", &classSubmittedCount[c]);
        registry.counter(p + ".completed", &classCompletedCount[c]);
        registry.counter(p + ".shed", &classShedCount[c]);
        registry.counter(p + ".deadline_failed",
                         &classDeadlineFailedCount[c]);
        registry.counter(p + ".retry_failed",
                         &classRetryFailedCount[c]);
        registry.counter(p + ".demoted", &classDemotedCount[c]);
    }
    for (InstanceId i = 0; i < cfg.numInstances; ++i) {
        instances[static_cast<std::size_t>(i)]->registerStats(
            registry, "instance." + std::to_string(i));
        if (trace)
            instances[static_cast<std::size_t>(i)]->setTraceSink(
                trace.get());
    }
}

void
Cluster::submitTrace(const workload::Trace& trace)
{
    trace.validate();
    // One contiguous chunk per trace: submission is a single
    // allocation instead of one heap node per request.
    std::vector<workload::Request>& chunk = requests.addChunk(trace);
    auto chunk_idx =
        static_cast<std::int32_t>(requests.numChunks() - 1);
    chunkLive.push_back(chunk.size());
    retiredMetrics.emplace_back();
    chunkRetired.push_back(0);
    liveRequests += static_cast<std::int64_t>(chunk.size());
    // Consecutive same-timestamp requests become one burst event:
    // their placements and admissions drain back-to-back, and every
    // member defers its plan boundary until the burst is placed.
    for (std::size_t i = 0; i < chunk.size();) {
        std::size_t j = i + 1;
        while (j < chunk.size() &&
               chunk[j].spec().arrival == chunk[i].spec().arrival) {
            ++j;
        }
        workload::Request* first = &chunk[i];
        auto n = static_cast<std::uint32_t>(j - i);
        for (std::size_t k = i; k < j; ++k)
            chunk[k].arenaChunk = chunk_idx;
        sim.at(first->spec().arrival,
               [this, first, n]() { onArrivals(first, n); });
        i = j;
    }
}

const core::ClusterView&
Cluster::buildView(Time now)
{
    ++viewBuilds;
    for (std::size_t i = 0; i < instances.size(); ++i) {
        if (viewAudit)
            instances[i]->verifySloHeap(now);
        const bool was_ok = view[i].answeringSloOk;
        view[i] = instances[i]->snapshot(now);
        ++viewRefreshes;
        if (trace != nullptr && viewBuilds > 1 &&
            view[i].answeringSloOk != was_ok) {
            // The paper's t_i verdict flipped for this instance — the
            // signal the adaptive placement override keys off.
            trace->instant(obs::TraceCat::Slo,
                           view[i].answeringSloOk
                               ? obs::TraceName::SloOk
                               : obs::TraceName::SloViolated,
                           instances[i]->id(), now);
        }
    }
    return view;
}

void
Cluster::onArrivals(workload::Request* first, std::uint32_t n)
{
    // Placement stays strictly per-arrival: each decision sees the
    // previous members admitted but not yet planned. A burst member's
    // plan boundary is deferred to a same-timestamp event, so no
    // instance plans member 1 alone before member 2 is placed.
    // Admission control under capacity loss: while the surviving
    // fraction of the fleet sits below the shed floor, new work is
    // rejected outright (terminal failure with an accounted reason)
    // so the survivors degrade to reduced goodput instead of
    // drowning in a backlog they can never clear.
    if (injector != nullptr && cfg.fault.shedFloor > 0.0 &&
        upFraction() < cfg.fault.shedFloor) {
        for (std::uint32_t i = 0; i < n; ++i) {
            ++shedCount;
            failTerminally(first + i, workload::FailReason::Shed);
        }
        return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        workload::Request* req = first + i;
        if (classesOn) {
            // The class layer owns the scheduler-visible rank: traces
            // may carry class annotations, but with classes off every
            // rank stays at its zero default and the schedulers'
            // class-rank comparator levels are inert.
            ++classSubmittedCount[workload::sloClassIndex(
                req->spec().sloClass)];
            req->schedClassRank =
                static_cast<std::uint8_t>(req->spec().sloClass);
            if (classAdmissionShed(req))
                continue;
            armDeadline(req);
        }
        const core::ClusterView& v = buildView(sim.now());
        InstanceId target = placement->placeNew(v, *req);
        if (target == kNoInstance && injector != nullptr) {
            // Whole fleet down/draining: hold the arrival in the
            // retry loop until capacity returns or its budget runs
            // out.
            requeueRequest(req);
            continue;
        }
        if (target < 0 ||
            target >= static_cast<InstanceId>(instances.size()))
            panic("placement returned invalid instance " +
                  std::to_string(target));
        instances[target]->addRequest(req, /*defer_plan=*/n > 1);
    }
}

void
Cluster::noteRequestFinished(workload::Request* req)
{
    // A finished (or terminally failed) request's pending deadline
    // timeout must not fire into a dead pointer's state.
    if (classesOn && req->deadlineEventId != sim::kNoEvent) {
        sim.cancel(req->deadlineEventId);
        req->deadlineEventId = sim::kNoEvent;
    }
    --liveRequests;
    if (req->arenaChunk < 0)
        return;
    auto idx = static_cast<std::size_t>(req->arenaChunk);
    // Retire from a same-timestamp event, never from here: this runs
    // inside the engine's completion and deadline-drain loops, which
    // still read the request after the callback returns.
    if (--chunkLive[idx] == 0 && chunkRecycling)
        sim.at(sim.now(), [this, idx] { retireChunk(idx); });
}

void
Cluster::retireChunk(std::size_t idx)
{
    // Every request in the chunk is finished: it holds no KV, sits in
    // no scheduler queue or SLO heap, and was settled at its final
    // emission, so the scored rows are exactly what collectMetrics
    // would produce at teardown.
    std::vector<workload::Request>& chunk = requests.chunk(idx);
    for (const auto& req : chunk)
        retiredUnfinished += !req.finished();
    if (streaming != nullptr) {
        // Streaming mode: fold each scored row into the sketches and
        // store nothing — this is what bounds soak-run memory.
        for (auto& req : chunk)
            streaming->fold(qoe::computeRequestMetrics(req, cfg.slo, &cfg.sloClasses));
    } else {
        std::vector<qoe::RequestMetrics>& out = retiredMetrics[idx];
        out.reserve(chunk.size());
        for (auto& req : chunk)
            out.push_back(qoe::computeRequestMetrics(req, cfg.slo, &cfg.sloClasses));
    }
    chunkRetired[idx] = 1;
    requests.recycleChunk(idx);
}

void
Cluster::onPhaseTransition(workload::Request* req, InstanceId from)
{
    const core::ClusterView& v = buildView(sim.now());
    InstanceId target = placement->placeTransition(v, *req, from);
    if (target < 0 || target >= static_cast<InstanceId>(instances.size()))
        panic("placement returned invalid instance " +
              std::to_string(target));

    if (trace != nullptr) {
        trace->instant(obs::TraceCat::Phase,
                       target == from ? obs::TraceName::PhaseStay
                                      : obs::TraceName::PhaseMigrate,
                       from, sim.now(), obs::TraceArg::Request,
                       static_cast<std::int64_t>(req->id()));
    }
    if (target == from) {
        // Stay home: the intra-instance scheduler requeues the request
        // into its answering-phase (low-priority) machinery.
        instances[from]->scheduler().onPhaseTransition(req);
        return;
    }
    migrate(req, from, target);
}

void
Cluster::migrate(workload::Request* req, InstanceId from, InstanceId to)
{
    Time start = sim.now();
    instances[from]->detach(req);
    // Entering the answering phase restarts quantum accounting
    // regardless of which instance it lands on.
    req->resetQuantum();
    ++migrations;

    if (trace != nullptr) {
        // Async span on the target's track: begin at detach, end when
        // the KV lands over the fabric ingress link.
        trace->asyncBegin(obs::TraceCat::Migration,
                          obs::TraceName::KvTransfer, to, start,
                          static_cast<std::uint64_t>(req->id()),
                          obs::TraceArg::Tokens,
                          static_cast<std::int64_t>(req->kvTokens()));
    }
    Bytes bytes = perf.kvBytes(req->kvTokens());
    std::uint64_t nonce =
        injector != nullptr ? ++req->transferNonce : 0;
    ingress[to]->submit(bytes, [this, req, to, start, nonce]() {
        if (injector != nullptr) {
            // The transfer can abort in flight: a seeded link failure
            // (stateless per-attempt draw) or the destination crashing
            // while the KV was on the wire. Either way the request is
            // re-queued through the backoff retry path.
            bool link_fail = injector->drawLinkFailure(req->id(), nonce);
            if (link_fail || !instances[to]->isUp()) {
                if (link_fail) {
                    ++linkFailuresCount;
                    if (trace != nullptr) {
                        trace->instant(
                            obs::TraceCat::Fault,
                            obs::TraceName::LinkFail, to, sim.now(),
                            obs::TraceArg::Request,
                            static_cast<std::int64_t>(req->id()));
                    }
                }
                if (trace != nullptr) {
                    trace->asyncEnd(
                        obs::TraceCat::Migration,
                        obs::TraceName::KvTransfer, to, sim.now(),
                        static_cast<std::uint64_t>(req->id()));
                }
                requeueRequest(req);
                return;
            }
        }
        if (req->deadlineExpired && interceptExpired(req)) {
            // Expired while the KV was on the wire: the transfer
            // completes (span closed) but the request never lands.
            if (trace != nullptr) {
                trace->asyncEnd(obs::TraceCat::Migration,
                                obs::TraceName::KvTransfer, to,
                                sim.now(),
                                static_cast<std::uint64_t>(req->id()));
            }
            return;
        }
        req->kvTransferLatencies.push_back(sim.now() - start);
        ++req->migrationCount;
        if (trace != nullptr) {
            trace->asyncEnd(obs::TraceCat::Migration,
                            obs::TraceName::KvTransfer, to, sim.now(),
                            static_cast<std::uint64_t>(req->id()));
        }
        instances[to]->landMigration(req);
    });

    // The source may have capacity freed up; let it reschedule.
    instances[from]->kick();
}

double
Cluster::upFraction() const
{
    int up = 0;
    for (const auto& inst : instances) {
        if (inst->isUp() && !inst->isDraining())
            ++up;
    }
    return static_cast<double>(up) /
           static_cast<double>(instances.size());
}

double
Cluster::freeGpuKvFraction() const
{
    TokenCount free_tokens = 0;
    TokenCount cap = 0;
    for (const auto& inst : instances) {
        if (!inst->isUp() || inst->isDraining())
            continue;
        free_tokens += inst->pool().gpuFree();
        cap += inst->pool().gpuCapacity();
    }
    if (cap <= 0)
        return 0.0;
    return static_cast<double>(free_tokens) /
           static_cast<double>(cap);
}

bool
Cluster::classAdmissionShed(workload::Request* req)
{
    if (!cfg.sloClasses.overloadControl)
        return false;
    const qoe::SloClassParams& p =
        cfg.sloClasses.of(req->spec().sloClass);
    bool shed = false;
    if (p.shedUpFloor > 0.0 && upFraction() < p.shedUpFloor)
        shed = true;
    if (!shed && p.shedKvFloor > 0.0 &&
        freeGpuKvFraction() < p.shedKvFloor) {
        shed = true;
    }
    if (!shed && cfg.sloClasses.shedOnNegativeSlack &&
        p.relativeDeadline > 0.0) {
        // Optimistic completion bound: one clean prefill pass plus a
        // batch-1 decode step per remaining token on an otherwise idle
        // instance. If even that misses the deadline, admitting the
        // request wastes capacity the surviving classes need.
        const workload::RequestSpec& s = req->spec();
        TokenCount to_generate = s.reasoningTokens + s.answerTokens;
        Time lower = perf.mixedStepLatency(s.promptTokens, 0, 0) +
                     static_cast<double>(to_generate) *
                         perf.mixedStepLatency(0, 1, s.promptTokens);
        shed = lower > p.relativeDeadline;
    }
    if (!shed)
        return false;
    ++shedCount;
    if (trace != nullptr) {
        trace->instant(obs::TraceCat::Admission,
                       obs::TraceName::ClassShed,
                       obs::TraceSink::kClusterTrack, sim.now(),
                       obs::TraceArg::Request,
                       static_cast<std::int64_t>(req->id()));
    }
    failTerminally(req, workload::FailReason::Shed);
    return true;
}

void
Cluster::armDeadline(workload::Request* req)
{
    if (!cfg.sloClasses.enforceDeadlines)
        return;
    Time rel = cfg.sloClasses.of(req->spec().sloClass).relativeDeadline;
    if (rel <= 0.0)
        return;
    req->deadlineEventId =
        sim.after(rel, [this, req] { onDeadlineFire(req); });
}

void
Cluster::onDeadlineFire(workload::Request* req)
{
    req->deadlineEventId = sim::kNoEvent;
    if (req->finished() || req->exec == workload::ExecState::Done)
        return;
    req->deadlineExpired = true;
    if (trace != nullptr) {
        trace->instant(obs::TraceCat::Slo,
                       obs::TraceName::DeadlineExceeded,
                       obs::TraceSink::kClusterTrack, sim.now(),
                       obs::TraceArg::Request,
                       static_cast<std::int64_t>(req->id()));
    }
    enforceExpiry(req);
}

void
Cluster::enforceExpiry(workload::Request* req)
{
    using workload::ExecState;
    if (req->finished() || req->exec == ExecState::Done ||
        !req->deadlineExpired) {
        return;
    }
    bool hosted = req->exec == ExecState::WaitingNew ||
                  req->exec == ExecState::ResidentGpu ||
                  req->exec == ExecState::SwappedCpu;
    Instance* inst = nullptr;
    if (hosted) {
        inst = instances[static_cast<std::size_t>(req->home)].get();
        if (inst->hasStepInFlight()) {
            // Mid-step: the in-flight plan's vectors still reference
            // the request, so ripping it out now would corrupt the
            // step completion. The instance parks the expiry and
            // replays it through this handler at the boundary.
            inst->noteDeadlineExpired(req);
            return;
        }
    }
    if (cfg.sloClasses.of(req->spec().sloClass).demoteOnExpiry) {
        if (req->bestEffort)
            return; // Already demoted (double-fire safe).
        ++classDemotedCount[workload::sloClassIndex(
            req->spec().sloClass)];
        if (trace != nullptr) {
            trace->instant(obs::TraceCat::Slo, obs::TraceName::Demoted,
                           obs::TraceSink::kClusterTrack, sim.now(),
                           obs::TraceArg::Request,
                           static_cast<std::int64_t>(req->id()));
        }
        if (hosted) {
            inst->demoteBestEffort(req);
            inst->kick();
        } else {
            // InTransit/Unassigned: flag only — the landing or retry
            // admission re-keys it under the best-effort rank.
            req->bestEffort = true;
            req->schedClassRank = workload::kBestEffortClassRank;
        }
        return;
    }
    if (hosted) {
        // Real timeout: reclaim the KV through the same detach path a
        // migration uses, fail the request, and let the instance
        // reschedule into the freed capacity.
        inst->detach(req);
        failTerminally(req, workload::FailReason::DeadlineExceeded);
        inst->kick();
        return;
    }
    if (req->exec == ExecState::Unassigned) {
        failTerminally(req, workload::FailReason::DeadlineExceeded);
        return;
    }
    // InTransit (KV on the wire, or backoff pending): the landing and
    // retry guards enforce the expiry when the request next touches
    // ground, so nothing rips state out from under the transfer.
}

bool
Cluster::interceptExpired(workload::Request* req)
{
    if (!classesOn || !req->deadlineExpired ||
        req->exec == workload::ExecState::Done) {
        return false;
    }
    if (cfg.sloClasses.of(req->spec().sloClass).demoteOnExpiry)
        return false;
    failTerminally(req, workload::FailReason::DeadlineExceeded);
    return true;
}

void
Cluster::crashInstance(InstanceId id)
{
    ++numCrashesCount;
    crashImpl(id, obs::TraceName::Crash);
}

void
Cluster::recoverInstance(InstanceId id)
{
    if (injector == nullptr)
        panic("fault API needs cfg.fault.enabled");
    if (trace != nullptr) {
        trace->instant(obs::TraceCat::Fault, obs::TraceName::Recover,
                       id, sim.now());
    }
    instances[static_cast<std::size_t>(id)]->recover();
}

void
Cluster::startDrain(InstanceId id)
{
    if (injector == nullptr)
        panic("fault API needs cfg.fault.enabled");
    ++numDrainsCount;
    if (trace != nullptr) {
        trace->instant(obs::TraceCat::Fault, obs::TraceName::DrainStart,
                       id, sim.now());
    }
    instances[static_cast<std::size_t>(id)]->setDraining(true);
}

void
Cluster::finishDrain(InstanceId id)
{
    crashImpl(id, obs::TraceName::DrainDeadline);
}

void
Cluster::setStraggler(InstanceId id, double factor)
{
    if (injector == nullptr)
        panic("fault API needs cfg.fault.enabled");
    if (factor != 1.0) {
        ++stragglerWindowsCount;
        if (trace != nullptr) {
            trace->instant(obs::TraceCat::Fault,
                           obs::TraceName::StragglerStart, id,
                           sim.now(), obs::TraceArg::Value,
                           static_cast<std::int64_t>(
                               std::llround(factor * 1000.0)));
        }
    } else if (trace != nullptr) {
        trace->instant(obs::TraceCat::Fault,
                       obs::TraceName::StragglerEnd, id, sim.now());
    }
    instances[static_cast<std::size_t>(id)]->setPerfScale(factor);
}

void
Cluster::crashImpl(InstanceId id, obs::TraceName why)
{
    if (injector == nullptr)
        panic("fault API needs cfg.fault.enabled");
    if (trace != nullptr)
        trace->instant(obs::TraceCat::Fault, why, id, sim.now());
    orphanScratch.clear();
    instances[static_cast<std::size_t>(id)]->crash(
        cfg.fault.preserveCpuKv, orphanScratch);
    // Re-queue in detach order: the crash walks the swap-pop hosted
    // vector, whose order is a function of the event sequence, so
    // same-seed replays place the orphans identically.
    for (auto* r : orphanScratch)
        requeueRequest(r);
    orphanScratch.clear();
}

void
Cluster::requeueRequest(workload::Request* req)
{
    using workload::ExecState;
    // An expired fail-policy request re-entering the retry loop (crash
    // orphan, aborted transfer, no-capacity arrival) fails here rather
    // than burning backoff cycles it can never use.
    if (interceptExpired(req))
        return;
    if (req->exec == ExecState::Unassigned) {
        // Never admitted anywhere (placement found no live target):
        // start the wait clock; the interval books Blocked on the
        // eventual admit.
        req->resetAccrual(sim.now(), workload::BucketKind::Blocked);
        req->exec = ExecState::InTransit;
    }
    if (req->retryCount >= cfg.fault.retryBudget) {
        failTerminally(req, workload::FailReason::RetryBudget);
        return;
    }
    ++req->retryCount;
    ++retriesCount;
    if (trace != nullptr) {
        trace->instant(obs::TraceCat::Retry,
                       obs::TraceName::RetryScheduled,
                       obs::TraceSink::kClusterTrack, sim.now(),
                       obs::TraceArg::Request,
                       static_cast<std::int64_t>(req->id()));
    }
    Time delay = fault::backoffDelay(cfg.fault, req->retryCount - 1);
    sim.after(delay, [this, req] { retryPlace(req); });
}

void
Cluster::retryPlace(workload::Request* req)
{
    // The deadline can expire mid-backoff (the request is InTransit,
    // owned by nobody); enforcement waits here, at the wakeup.
    if (interceptExpired(req))
        return;
    const core::ClusterView& v = buildView(sim.now());
    InstanceId target = placement->placeNew(v, *req);
    if (target == kNoInstance) {
        // Still no live capacity; the retry budget bounds this loop.
        requeueRequest(req);
        return;
    }
    if (target < 0 ||
        target >= static_cast<InstanceId>(instances.size()))
        panic("placement returned invalid instance " +
              std::to_string(target));
    if (!req->prefillDone) {
        // No KV to restore: plain re-admission (prefill will rerun).
        instances[static_cast<std::size_t>(target)]->addRequest(req);
        return;
    }
    restoreKv(req, target);
}

void
Cluster::restoreKv(workload::Request* req, InstanceId to)
{
    // Failover restore: the request's KV is re-materialized over the
    // target's fabric ingress link, as if fetched from a host-side
    // replica — the same transfer model as a migration, including the
    // possibility of a link failure or the target crashing mid-
    // transfer.
    Time start = sim.now();
    if (trace != nullptr) {
        trace->asyncBegin(obs::TraceCat::Migration,
                          obs::TraceName::KvTransfer, to, start,
                          static_cast<std::uint64_t>(req->id()),
                          obs::TraceArg::Tokens,
                          static_cast<std::int64_t>(req->kvTokens()));
    }
    Bytes bytes = perf.kvBytes(req->kvTokens());
    std::uint64_t nonce = ++req->transferNonce;
    ingress[static_cast<std::size_t>(to)]->submit(
        bytes, [this, req, to, start, nonce]() {
            bool link_fail =
                injector->drawLinkFailure(req->id(), nonce);
            if (link_fail || !instances[to]->isUp()) {
                if (link_fail) {
                    ++linkFailuresCount;
                    if (trace != nullptr) {
                        trace->instant(
                            obs::TraceCat::Fault,
                            obs::TraceName::LinkFail, to, sim.now(),
                            obs::TraceArg::Request,
                            static_cast<std::int64_t>(req->id()));
                    }
                }
                if (trace != nullptr) {
                    trace->asyncEnd(
                        obs::TraceCat::Migration,
                        obs::TraceName::KvTransfer, to, sim.now(),
                        static_cast<std::uint64_t>(req->id()));
                }
                requeueRequest(req);
                return;
            }
            if (req->deadlineExpired && interceptExpired(req)) {
                if (trace != nullptr) {
                    trace->asyncEnd(
                        obs::TraceCat::Migration,
                        obs::TraceName::KvTransfer, to, sim.now(),
                        static_cast<std::uint64_t>(req->id()));
                }
                return;
            }
            req->kvTransferLatencies.push_back(sim.now() - start);
            if (trace != nullptr) {
                trace->asyncEnd(obs::TraceCat::Migration,
                                obs::TraceName::KvTransfer, to,
                                sim.now(),
                                static_cast<std::uint64_t>(req->id()));
            }
            instances[static_cast<std::size_t>(to)]->landMigration(req);
        });
}

void
Cluster::failTerminally(workload::Request* req,
                        workload::FailReason reason)
{
    using workload::ExecState;
    // Shed arrivals never started an accrual cursor; displaced
    // requests settle their final wait interval before release.
    if (req->exec == ExecState::InTransit)
        req->settleAccrual(sim.now());
    req->failReason = reason;
    req->exec = ExecState::Done;
    ++terminalFailuresCount;
    if (classesOn) {
        auto ci = workload::sloClassIndex(req->spec().sloClass);
        switch (reason) {
          case workload::FailReason::Shed:
            ++classShedCount[ci];
            break;
          case workload::FailReason::DeadlineExceeded:
            ++classDeadlineFailedCount[ci];
            break;
          default:
            ++classRetryFailedCount[ci];
            break;
        }
    }
    if (trace != nullptr) {
        trace->instant(obs::TraceCat::Retry,
                       reason == workload::FailReason::Shed
                           ? obs::TraceName::Shed
                           : obs::TraceName::TerminalFail,
                       obs::TraceSink::kClusterTrack, sim.now(),
                       obs::TraceArg::Request,
                       static_cast<std::int64_t>(req->id()));
    }
    // No predictor->observeCompletion: a failed request generated no
    // terminal length signal to learn from.
    noteRequestFinished(req);
}

std::vector<qoe::RequestMetrics>
Cluster::collectMetrics() const
{
    std::vector<qoe::RequestMetrics> out;
    out.reserve(requests.size());
    Time now = sim.now();
    for (std::size_t c = 0; c < requests.numChunks(); ++c) {
        const std::vector<qoe::RequestMetrics>& retired =
            retiredMetrics[c];
        if (!retired.empty()) {
            // Recycled chunk: the rows were scored (in chunk order)
            // the moment its last request finished.
            out.insert(out.end(), retired.begin(), retired.end());
            continue;
        }
        for (auto& req : requests.chunk(c)) {
            // Observation point: settle lazily accrued phase time for
            // requests still in flight (finished requests settled at
            // their final emission; unarrived ones have nothing
            // accrued).
            if (!req.finished() &&
                req.exec != workload::ExecState::Unassigned &&
                req.exec != workload::ExecState::Done) {
                req.settleAccrual(now);
            }
            out.push_back(qoe::computeRequestMetrics(req, cfg.slo, &cfg.sloClasses));
        }
    }
    return out;
}

std::size_t
Cluster::numUnfinished() const
{
    // A retired chunk's storage is gone; its terminal failures were
    // counted when it retired.
    std::size_t n = retiredUnfinished;
    requests.forEach([&](const workload::Request& req) {
        if (!req.finished())
            ++n;
    });
    return n;
}

TokenCount
Cluster::maxPeakGpuKv() const
{
    TokenCount peak = 0;
    for (const auto& inst : instances)
        peak = std::max(peak, inst->pool().peakGpuUsed());
    return peak;
}

std::shared_ptr<const obs::StreamingMetrics>
Cluster::finalStreamingMetrics() const
{
    if (streaming == nullptr)
        return nullptr;
    // Copy the running sketch, then fold every chunk that has not
    // retired — its rows were never folded. Same settle-then-score
    // walk as collectMetrics, so both modes cover the identical
    // population.
    auto snap = std::make_shared<obs::StreamingMetrics>(*streaming);
    Time now = sim.now();
    for (std::size_t c = 0; c < requests.numChunks(); ++c) {
        if (chunkRetired[c] != 0)
            continue;
        for (auto& req : requests.chunk(c)) {
            if (!req.finished() &&
                req.exec != workload::ExecState::Unassigned &&
                req.exec != workload::ExecState::Done) {
                req.settleAccrual(now);
            }
            snap->fold(qoe::computeRequestMetrics(req, cfg.slo, &cfg.sloClasses));
        }
    }
    return snap;
}

} // namespace cluster
} // namespace pascal
