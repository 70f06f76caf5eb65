#include "replays.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>

#include "src/cluster/run_context.hh"
#include "src/common/rng.hh"
#include "src/core/iteration_plan.hh"
#include "src/model/kv_pool.hh"
#include "src/sim/event_queue.hh"

namespace pascal
{
namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** A fresh copy of trace request @p i with a replay-unique id, so
 *  recycled specs never tie with live ones in id-keyed orders. */
workload::RequestSpec
specAt(const workload::Trace& trace, std::size_t i, RequestId id)
{
    workload::RequestSpec s = trace.requests[i % trace.size()];
    s.id = id;
    s.arrival = static_cast<double>(id) * 1e-3;
    return s;
}

/** Keeps results observable so timed calls are not optimised away. */
volatile double gSink = 0.0;

} // namespace

Probe
probeRun(const cluster::SystemConfig& cfg, const workload::Trace& trace,
         double makespan, int samples, cluster::RunResult& result)
{
    cluster::RunContext ctx(cfg);
    ctx.submit(trace);
    const auto& instances = ctx.cluster().getInstances();
    const double n = static_cast<double>(instances.size());
    Probe p;
    const Time start = trace.requests.front().arrival;
    const int max_views = 16;
    for (int k = 1; k <= samples; ++k) {
        ctx.run(start + makespan * k / samples);
        const Time now = ctx.simulator().now();
        p.meanPendingEvents +=
            static_cast<double>(ctx.simulator().pendingEvents());
        core::ClusterView view;
        for (const auto& inst : instances) {
            p.meanHosted +=
                static_cast<double>(inst->scheduler().hosted().size()) / n;
            p.meanLiveKv +=
                static_cast<double>(inst->pool().numTracked()) / n;
            view.push_back(inst->snapshot(now));
        }
        if (k % std::max(1, samples / max_views) == 0)
            p.views.push_back(std::move(view));
    }
    ctx.run();
    result = ctx.result();
    p.meanPendingEvents /= samples;
    p.meanHosted /= samples;
    p.meanLiveKv /= samples;
    return p;
}

double
replayEventQueue(std::size_t depth, std::uint64_t seed)
{
    constexpr int kOps = 2'000'000;
    depth = std::max<std::size_t>(depth, 1);
    Rng rng(seed);
    std::vector<double> delays(1u << 16);
    for (auto& d : delays)
        d = rng.exponential(static_cast<double>(depth));
    sim::EventQueue q;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(rng.uniformReal(0.0, 1.0), [&fired] { ++fired; });
    auto t0 = Clock::now();
    for (int op = 0; op < kOps; ++op) {
        sim::EventQueue::Fired f = q.pop();
        f.callback();
        q.schedule(f.when + delays[op & (delays.size() - 1)],
                   [&fired] { ++fired; });
    }
    auto t1 = Clock::now();
    gSink = gSink + static_cast<double>(fired);
    return nsBetween(t0, t1) / kOps;
}

PlanReplay
replayPlan(const cluster::SystemConfig& cfg, TokenCount kv_capacity,
           const workload::Trace& trace, std::size_t hosted)
{
    constexpr int kWarmup = 2000;
    constexpr int kIterations = 20000;
    hosted = std::max<std::size_t>(hosted, 1);

    auto predictor = predict::makePredictor(cfg.predictor);
    auto sched = cluster::makeScheduler(cfg.scheduler, cfg.limits);
    sched->setPredictor(predictor.get());
    sched->enableIncremental();
    model::KvPool pool(kv_capacity, cfg.kvBlockSizeTokens);
    const TokenCount quantum = cfg.limits.quantum;

    std::deque<workload::Request> reqs; // Stable addresses.
    RequestId next_id = 0;
    auto admit_next = [&] {
        reqs.emplace_back(specAt(trace, next_id, next_id));
        ++next_id;
        workload::Request* r = &reqs.back();
        r->exec = workload::ExecState::WaitingNew;
        sched->add(r);
    };
    for (std::size_t i = 0; i < hosted; ++i)
        admit_next();

    core::IterationPlan plan;
    PlanReplay out;
    double build_ns = 0.0, reuse_ns = 0.0;
    std::uint64_t builds = 0, reuses = 0;
    Time now = 0.0;
    for (int it = 0; it < kWarmup + kIterations; ++it) {
        const bool timed = it >= kWarmup;
        auto t0 = Clock::now();
        bool reused = sched->reusePlan(plan, pool);
        auto t1 = Clock::now();
        if (reused) {
            if (timed) {
                reuse_ns += nsBetween(t0, t1);
                ++reuses;
            }
        } else {
            auto t2 = Clock::now();
            sched->buildPlan(pool, plan);
            auto t3 = Clock::now();
            if (timed) {
                build_ns += nsBetween(t2, t3);
                ++builds;
            }
        }
        if (plan.idle())
            break;

        // Apply the plan the way Instance::startIteration does.
        for (auto* r : plan.swapOut) {
            pool.moveToCpu(r->kvSlot);
            r->exec = workload::ExecState::SwappedCpu;
            sched->noteResidency(r);
        }
        for (auto* r : plan.swapIn) {
            pool.moveToGpu(r->kvSlot);
            r->exec = workload::ExecState::ResidentGpu;
            sched->noteResidency(r);
        }
        for (auto* r : plan.prewarm) {
            r->kvSlot = pool.allocGpu(r->id(), r->spec().promptTokens);
            r->exec = workload::ExecState::ResidentGpu;
            r->prefillDone = true;
            sched->noteResidency(r);
        }
        for (auto* r : plan.prefill) {
            r->kvSlot = pool.allocGpu(r->id(), r->spec().promptTokens + 1);
            r->exec = workload::ExecState::ResidentGpu;
            sched->noteResidency(r);
        }
        for (auto* r : plan.decode)
            pool.growGpu(r->kvSlot, 1);

        // ... and complete it the way Instance::completeIteration does.
        now += 0.02;
        for (auto* r : plan.prefill) {
            r->completePrefill(now, quantum);
            sched->noteExecuted(r);
        }
        for (auto* r : plan.decode) {
            r->emitToken(now, quantum);
            sched->noteExecuted(r);
        }
        auto handle = [&](workload::Request* r) {
            if (r->finished()) {
                pool.release(r->kvSlot);
                r->kvSlot = model::kNoKvSlot;
                r->exec = workload::ExecState::Done;
                sched->remove(r);
                admit_next();
            } else if (r->reasoningEnd == now &&
                       !r->spec().startInAnswering &&
                       r->phase() == workload::Phase::Answering) {
                sched->onPhaseTransition(r);
            }
        };
        for (auto* r : plan.prefill)
            handle(r);
        for (auto* r : plan.decode)
            handle(r);
    }
    out.buildNs = builds ? build_ns / static_cast<double>(builds) : 0.0;
    out.reuseNs = reuses ? reuse_ns / static_cast<double>(reuses) : 0.0;
    return out;
}

double
replayPlacement(const cluster::SystemConfig& cfg,
                const std::vector<core::ClusterView>& views,
                const workload::Trace& trace)
{
    constexpr int kDecisions = 400000;
    constexpr std::size_t kRequests = 256;
    auto predictor = predict::makePredictor(cfg.predictor);
    auto placement = cluster::makePlacement(cfg.placement);
    placement->setPredictor(predictor.get());

    // Fresh arrivals, and the same requests at their </think> token.
    std::vector<workload::Request> fresh, answering;
    fresh.reserve(kRequests);
    answering.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        fresh.emplace_back(specAt(trace, i, static_cast<RequestId>(i)));
        answering.emplace_back(specAt(trace, i, static_cast<RequestId>(i)));
        workload::Request& r = answering.back();
        if (r.spec().startInAnswering)
            continue;
        r.completePrefill(0.0, cfg.limits.quantum);
        while (r.phase() == workload::Phase::Reasoning)
            r.emitToken(0.0, cfg.limits.quantum);
    }

    std::int64_t sink = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < kDecisions; ++i) {
        const core::ClusterView& view = views[i % views.size()];
        const std::size_t k = static_cast<std::size_t>(i) % kRequests;
        sink += placement->placeNew(view, fresh[k]);
        sink += placement->placeTransition(
            view, answering[k],
            static_cast<InstanceId>(static_cast<std::size_t>(i) %
                                    view.size()));
    }
    auto t1 = Clock::now();
    gSink = gSink + static_cast<double>(sink);
    return nsBetween(t0, t1) / (2.0 * kDecisions);
}

double
replayKvPool(TokenCount kv_capacity, TokenCount block, std::size_t live,
             const workload::Trace& trace)
{
    constexpr int kOps = 4'000'000;
    live = std::max<std::size_t>(live, 1);
    model::KvPool pool(kv_capacity, block);
    struct Slot
    {
        model::KvSlot slot = model::kNoKvSlot;
        TokenCount remaining = 0;
    };
    std::vector<Slot> slots(live);
    std::size_t next = 0;
    // Start a new allocation from the next trace spec, clipped to what
    // is free (the engine would have queued it instead).
    auto start = [&](Slot& s) {
        const workload::RequestSpec& spec =
            trace.requests[next++ % trace.size()];
        TokenCount want =
            std::min(spec.promptTokens + 1,
                     pool.gpuFree() / block * block);
        if (want <= 0)
            return;
        s.slot = pool.allocGpu(static_cast<RequestId>(next), want);
        s.remaining = spec.reasoningTokens + spec.answerTokens;
    };
    for (auto& s : slots)
        start(s);

    auto t0 = Clock::now();
    for (int op = 0; op < kOps; ++op) {
        Slot& s = slots[static_cast<std::size_t>(op) % live];
        if (s.slot == model::kNoKvSlot) {
            start(s);
        } else if (s.remaining == 0 || pool.gpuFree() < block) {
            pool.release(s.slot);
            s.slot = model::kNoKvSlot;
        } else {
            pool.growGpu(s.slot, 1);
            --s.remaining;
        }
    }
    auto t1 = Clock::now();
    gSink = gSink + static_cast<double>(pool.peakGpuUsed());
    return nsBetween(t0, t1) / kOps;
}

PredictReplay
replayPredictor(const predict::PredictorConfig& pc,
                const workload::Trace& trace,
                const std::vector<std::size_t>& completion_order)
{
    constexpr int kQueriesPerCompletion = 16;
    constexpr std::size_t kProbes = 64;
    // The profile predictor re-sorts its samples after every
    // completion, so the replay stops at alpaca-spec's trace length.
    constexpr std::size_t kMaxCompletions = 2500;
    PredictReplay out;
    auto predictor = predict::makePredictor(pc);
    if (!predictor || completion_order.empty())
        return out;

    std::vector<workload::Request> probes;
    for (std::size_t i = 0; i < kProbes; ++i)
        probes.emplace_back(trace.requests[i % trace.size()]);

    const std::size_t n =
        std::min(completion_order.size(), kMaxCompletions);
    double query_ns[2] = {0.0, 0.0};
    double observe_ns = 0.0;
    double sink = 0.0;
    std::size_t q = 0;
    for (std::size_t i = 0; i < n; ++i) {
        workload::Request done(trace.requests[completion_order[i]]);
        auto t0 = Clock::now();
        for (int k = 0; k < kQueriesPerCompletion; ++k)
            sink += predictor->predictRemainingTokens(
                probes[q++ % kProbes]);
        auto t1 = Clock::now();
        predictor->observeCompletion(done);
        auto t2 = Clock::now();
        query_ns[2 * i >= n] += nsBetween(t0, t1);
        observe_ns += nsBetween(t1, t2);
    }
    gSink = gSink + sink;
    // Completions i with 2i < n form the first half.
    const double first = static_cast<double>((n + 1) / 2);
    const double second = static_cast<double>(n / 2);
    out.queryNs = (query_ns[0] + query_ns[1]) /
                  (static_cast<double>(n) * kQueriesPerCompletion);
    out.observeNs = observe_ns / static_cast<double>(n);
    if (query_ns[0] > 0.0 && second > 0.0)
        out.queryGrowth =
            (query_ns[1] / second) / (query_ns[0] / first);
    return out;
}

} // namespace perfbench
} // namespace pascal
