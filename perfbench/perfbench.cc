/**
 * @file
 * The repository benchmark binary (run it through perfbench/run.py).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
 *
 * --trace 0 measures the end-to-end metrics with tracing off: it sets
 * up and runs the workload through cluster::RunContext repeatedly for
 * S seconds (at least three times) and reports medians. Every
 * repetition replays the same seed, so each must produce the same
 * result digest. Host times (setup_s, sim_tokens_per_s) are scaled to
 * the reference host: each repetition is bracketed by a fixed speed
 * probe, and its times are multiplied by kProbeReferenceS over the
 * probe's mean time (see speedProbe()).
 *
 * --trace 1 makes one traced run of the same workload: bench-side
 * spans around each call into a module, the StatRegistry dump, and
 * replays of single layers on the real components at the operating
 * point the run observed. It writes DIR/<W>-requests.csv (one row per
 * request), DIR/<W>-spans.json (Chrome trace events, one track per
 * layer) and DIR/<W>-layers.json (provenance, the metrics, and which
 * end-to-end metric each should move).
 *
 * Both modes check the outputs (request totality, no KV leak at
 * drain, same-seed replay, no failed request, injected faults firing),
 * print every metric by name with its unit, and end with one JSON line
 * {"correct", "attempted", "failed", "metrics"}. A violated check
 * exits 1. Numbers from unoptimised or sanitized builds are refused.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/common/log.hh"
#include "src/qoe/metrics.hh"

#include "bench/bench_util.hh"

#include "replays.hh"
#include "workloads.hh"

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) ||          \
    defined(__SANITIZE_THREAD__) || defined(PASCAL_SANITIZE_ENABLED)
#define PERFBENCH_UNFIT_BUILD 1
#endif

namespace
{

using namespace pascal;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds consumed by this thread. Host costs are measured in CPU
 * time, not wall time: the simulation is single-threaded, so on an
 * idle host the two agree, and on a shared host CPU time leaves out
 * the time other tenants held the core.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** The host-speed probe takes this long on the reference host, a
 *  4-vCPU 2.1 GHz Xeon VM at its typical load. */
constexpr double kProbeReferenceS = 0.025;

/**
 * A fixed piece of work, independent of the simulator, timed in CPU
 * seconds: heap-ordered event processing with hashed updates into a
 * 2 MB table, the simulator's mix of branches, cache misses and
 * arithmetic. On a shared host the speed of a core drifts with its
 * co-tenants, by up to half over minutes, and this probe slows down
 * with it while the program's own speed does not change.
 */
double
speedProbe()
{
    constexpr std::uint32_t kTable = 1u << 18;
    static std::vector<std::uint64_t> table(kTable, 1);
    std::uint64_t x = 88172645463325252ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::priority_queue<std::pair<std::uint64_t, std::uint32_t>> heap;
    for (std::uint32_t i = 0; i < 4096; ++i)
        heap.push({next() >> 20, i});
    const double t0 = cpuSeconds();
    std::uint64_t h = 0;
    for (std::uint32_t op = 0; op < 400000; ++op) {
        const auto [key, id] = heap.top();
        heap.pop();
        std::uint64_t& slot = table[(id * 2654435761u + op) & (kTable - 1)];
        slot = slot * 6364136223846793005ULL + key;
        h ^= slot;
        if (slot & 1)
            h += key >> 3;
        heap.push({key + (next() & 0xFFFFF), id});
    }
    static volatile std::uint64_t sink = 0;
    sink = sink + h;
    return cpuSeconds() - t0;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct Args
{
    std::string workload;
    std::string outDir = ".";
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What a per-layer metric should move: end-to-end metric, workload. */
struct LayerInfo
{
    const char* name;
    const char* unit;
    const char* moves;
};

const LayerInfo kLayers[] = {
    {"workload.generate_s", "s", "setup_s, all workloads"},
    {"cluster.construct_s", "s", "setup_s, all workloads"},
    {"cluster.submit_s", "s", "setup_s, all workloads"},
    {"sim.run_s", "s", "sim_tokens_per_s on alpaca-steady"},
    {"sim.events", "count",
     "sim_tokens_per_s on alpaca-steady; macro-stepping cuts it there "
     "and barely moves it on arena-overload"},
    {"sim.events_per_ktoken", "count/ktoken",
     "sim_tokens_per_s on alpaca-steady"},
    {"sim.queue.ns_per_op", "ns", "sim_tokens_per_s on chaos-classes"},
    {"cluster.engine.iterations", "count",
     "sim_tokens_per_s on alpaca-steady"},
    {"cluster.engine.decode_tokens", "count",
     "sim_tokens_per_s on alpaca-steady (per-token hooks)"},
    {"cluster.engine.batch_mean", "count",
     "sim_tokens_per_s on alpaca-steady"},
    {"cluster.engine.prefills", "count",
     "sim_tokens_per_s on alpaca-steady"},
    {"cluster.engine.swap_outs", "count",
     "sim_tokens_per_s on arena-overload (swaps)"},
    {"cluster.engine.swap_ins", "count",
     "sim_tokens_per_s on arena-overload (swaps)"},
    {"cluster.migrations", "count",
     "sim_tokens_per_s on alpaca-steady and arena-overload"},
    {"cluster.host_ns_per_token", "ns",
     "sim_tokens_per_s on alpaca-steady and arena-overload"},
    {"cluster.host_ns_per_decision", "ns",
     "sim_tokens_per_s on alpaca-steady and arena-overload"},
    {"cluster.slo.rekeys_per_token", "1/token",
     "sim_tokens_per_s on arena-overload, where it is higher than on "
     "alpaca-steady"},
    {"core.plan.builds", "count", "sim_tokens_per_s on alpaca-steady"},
    {"core.plan.reuses", "count", "sim_tokens_per_s on alpaca-steady"},
    {"core.plan.repairs", "count", "sim_tokens_per_s on alpaca-steady"},
    {"core.plan.full_walks", "count", "sim_tokens_per_s on alpaca-steady"},
    {"core.plan.reuse_ratio", "ratio",
     "sim_tokens_per_s on alpaca-steady and arena-overload (at least "
     "0.4); 0 on alpaca-spec"},
    {"core.plan.build_ns", "ns", "sim_tokens_per_s on arena-overload"},
    {"core.plan.reuse_ns", "ns", "sim_tokens_per_s on alpaca-steady"},
    {"core.view.decisions", "count", "sim_tokens_per_s on chaos-classes"},
    {"core.view.refreshes_per_decision", "ratio",
     "sim_tokens_per_s on chaos-classes"},
    {"core.placement.ns_per_decision", "ns",
     "sim_tokens_per_s on chaos-classes"},
    {"model.kv.peak_util", "ratio", "sim_tokens_per_s on arena-overload"},
    {"model.kv.ns_per_op", "ns", "sim_tokens_per_s on arena-overload"},
    {"predict.ns_per_query", "ns", "sim_tokens_per_s on alpaca-spec only"},
    {"predict.ns_per_observe", "ns",
     "sim_tokens_per_s on alpaca-spec only"},
    {"predict.query_ns_growth", "ratio",
     "sim_tokens_per_s on alpaca-spec only"},
    {"fault.crashes", "count",
     "sim_tokens_per_s and sim_ttft_p99_s on chaos-classes; zero "
     "elsewhere"},
    {"fault.drains", "count",
     "sim_tokens_per_s and sim_ttft_p99_s on chaos-classes; zero "
     "elsewhere"},
    {"fault.link_failures", "count",
     "sim_tokens_per_s and sim_ttft_p99_s on chaos-classes; zero "
     "elsewhere"},
    {"fault.retries", "count",
     "sim_tokens_per_s and sim_ttft_p99_s on chaos-classes; zero "
     "elsewhere"},
    {"fault.shed", "count",
     "none: zero everywhere, every request must finish"},
    {"fault.terminal_failures", "count",
     "none: zero everywhere, every request must finish"},
    {"fault.deadline_failed", "count",
     "none: zero everywhere, every request must finish"},
    {"fault.demoted", "count",
     "sim_slo_attainment on chaos-classes; zero elsewhere"},
    {"qoe.score_s", "s",
     "sim_tokens_per_s, largest share on alpaca-steady"},
    {"qoe.aggregate_s", "s",
     "sim_tokens_per_s, largest share on alpaca-steady"},
    {"obs.trace_overhead", "ratio",
     "none: tracing is off in the end-to-end runs"},
};

/** FNV-1a over a run's observable outcome: every per-request row and
 *  every registry stat. Two runs agree iff their digests do (up to
 *  hash collisions). */
class Digest
{
  public:
    void
    bytes(const void* p, std::size_t n)
    {
        const auto* c = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ULL;
        }
    }
    template <typename T>
    void
    add(const T& v)
    {
        bytes(&v, sizeof(v));
    }
    void add(const std::string& s) { bytes(s.data(), s.size()); }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 1469598103934665603ULL;
};

std::uint64_t
digestOf(const cluster::RunResult& r)
{
    Digest d;
    for (const auto& m : r.perRequest) {
        d.add(m.id);
        d.add(m.finished);
        d.add(m.failed);
        d.add(static_cast<int>(m.failReason));
        d.add(m.ttft);
        d.add(m.meanTpot);
        d.add(m.e2eLatency);
        d.add(m.qoe);
        d.add(m.sloViolated);
        d.add(m.migrationCount);
    }
    for (const auto& s : r.statsDump) {
        d.add(s.name);
        d.add(s.value);
        d.add(s.count);
        d.add(s.mean);
    }
    return d.value();
}

/** Sum of the per-instance stat "instance.<i>.<suffix>". */
double
instanceSum(const obs::StatDump& dump, const std::string& suffix)
{
    double sum = 0.0;
    for (const auto& s : dump) {
        if (s.name.compare(0, 9, "instance.") == 0 &&
            s.name.size() > suffix.size() &&
            s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0 &&
            s.name[s.name.size() - suffix.size() - 1] == '.') {
            sum += s.value;
        }
    }
    return sum;
}

double
stat(const obs::StatDump& dump, const std::string& name)
{
    const obs::StatValue* s = obs::findStat(dump, name);
    if (s == nullptr)
        fatal("perfbench: stat '" + name + "' not registered");
    return s->value;
}

/** Sum of "cluster.slo.<class>.<what>" over the SLO classes. */
double
classSum(const obs::StatDump& dump, const std::string& what)
{
    double sum = 0.0;
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        sum += stat(dump, std::string("cluster.slo.") +
                              workload::sloClassName(
                                  static_cast<workload::SloClass>(c)) +
                              "." + what);
    }
    return sum;
}

/** Generated tokens: every decode step plus each prefill's token. */
double
generatedTokens(const obs::StatDump& dump)
{
    return instanceSum(dump, "engine.decode_tokens") +
           instanceSum(dump, "engine.prefills");
}

/** The output checks every episode must pass; violations are
 *  appended to @p errors. */
void
checkRun(const Workload& w, const cluster::SystemConfig& cfg,
         const workload::Trace& trace, const cluster::RunResult& r,
         std::vector<std::string>& errors)
{
    auto fail = [&](const std::string& what) {
        errors.push_back(w.name + ": " + what);
    };
    // Totality: every submitted request has a row and finished or
    // terminally failed; the run drains, so none is still live.
    const std::size_t submitted = trace.size();
    std::size_t finished = 0, terminal = 0, live = 0;
    for (const auto& m : r.perRequest) {
        finished += m.finished;
        terminal += m.failed;
        live += !m.finished && !m.failed;
    }
    if (r.perRequest.size() != submitted ||
        finished + terminal + live != submitted || live != 0 ||
        terminal != r.numTerminalFailures ||
        finished != r.aggregate.numFinished ||
        terminal + live != r.numUnfinished) {
        fail("totality: submitted " + std::to_string(submitted) +
             " != finished " + std::to_string(finished) + " + terminal " +
             std::to_string(terminal) + " + unfinished " +
             std::to_string(live));
    }
    if (cfg.sloClasses.enabled) {
        std::uint64_t class_submitted = 0;
        for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
            const auto& o = r.perClass[c];
            class_submitted += o.submitted;
            if (o.submitted !=
                o.completed + o.shed + o.deadlineFailed + o.retryFailed) {
                fail(std::string("class totality broken for ") +
                     workload::sloClassName(
                         static_cast<workload::SloClass>(c)));
            }
        }
        if (class_submitted != submitted)
            fail("class submissions do not cover the trace");
    }
    const double held = instanceSum(r.statsDump, "kv.gpu_capacity") -
                        instanceSum(r.statsDump, "kv.gpu_free");
    if (held != 0.0)
        fail("KV leak at drain: " + std::to_string(held) + " tokens held");
    // Every workload is configured so that all requests finish, faults
    // or not (see workloads.cc).
    if (r.numUnfinished > 0) {
        fail("failed share " + std::to_string(r.numUnfinished) + "/" +
             std::to_string(submitted) + " is nonzero");
    }
}

/** A workload with faults injected must see crashes and retries, or it
 *  no longer runs the failover path it exists for. */
void
checkFaultsFired(const Workload& w, const Args& a, std::uint64_t crashes,
                 std::uint64_t retries, std::vector<std::string>& errors)
{
    if (w.config(a.seed, 0).fault.enabled && (crashes == 0 || retries == 0)) {
        errors.push_back(w.name + ": fault injection fired " +
                         std::to_string(crashes) + " crashes and " +
                         std::to_string(retries) + " retries");
    }
}

/** Bench-side spans, kept in memory and written as Chrome trace
 *  events at the end, one track (tid) per layer. */
class Spans
{
  public:
    /** Run @p f inside span @p name on @p track. The span is placed
     *  on the wall-clock timeline; the return value is its CPU
     *  seconds (see cpuSeconds()). */
    double
    time(const std::string& track, const std::string& name,
         const std::function<void()>& f)
    {
        auto t0 = Clock::now();
        const double cpu0 = cpuSeconds();
        f();
        const double cpu = cpuSeconds() - cpu0;
        auto t1 = Clock::now();
        spans.push_back({track, name, us(t0), us(t1) - us(t0)});
        return cpu;
    }

    void
    write(const std::string& path, const std::string& root) const
    {
        std::vector<std::string> tracks;
        for (const auto& s : spans) {
            if (std::find(tracks.begin(), tracks.end(), s.track) ==
                tracks.end())
                tracks.push_back(s.track);
        }
        std::ofstream out(path);
        if (!out)
            fatal("perfbench: cannot write " + path);
        double end_us = 0.0;
        for (const auto& s : spans)
            end_us = std::max(end_us, s.startUs + s.durUs);
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (std::size_t t = 0; t < tracks.size(); ++t) {
            out << "  {\"ph\": \"M\", \"name\": \"thread_name\", "
                   "\"pid\": 1, \"tid\": "
                << t + 1 << ", \"args\": {\"name\": \"" << tracks[t]
                << "\"}},\n";
        }
        // The root span every layer span names as its parent.
        out << "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
               "\"tid\": 0, \"args\": {\"name\": \"perfbench\"}},\n"
            << "  {\"ph\": \"X\", \"cat\": \"perfbench\", \"name\": \""
            << root << "\", \"pid\": 1, \"tid\": 0, \"ts\": 0, "
            << "\"dur\": " << bench::jsonNumber(end_us) << "},\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto& s = spans[i];
            const std::size_t tid =
                std::find(tracks.begin(), tracks.end(), s.track) -
                tracks.begin() + 1;
            out << "  {\"ph\": \"X\", \"cat\": \"" << s.track
                << "\", \"name\": \"" << s.name << "\", \"pid\": 1, "
                << "\"tid\": " << tid << ", \"ts\": "
                << bench::jsonNumber(s.startUs)
                << ", \"dur\": " << bench::jsonNumber(s.durUs)
                << ", \"args\": {\"parent\": \"" << root << "\"}}"
                << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        out << "]}\n";
    }

  private:
    struct Span
    {
        std::string track;
        std::string name;
        double startUs;
        double durUs;
    };

    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    }

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    for (const auto& m : metrics) {
        std::printf("%-34s %-16s %s\n", m.name.c_str(),
                    bench::jsonNumber(m.value).c_str(), m.unit.c_str());
    }
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + bench::jsonNumber(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

int
reportErrors(const std::vector<std::string>& errors)
{
    for (const auto& e : errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    return errors.empty() ? 0 : 1;
}

/** Finished requests that met every answering SLO, over submitted. */
double
sloAttainment(const std::vector<qoe::RequestMetrics>& rows)
{
    std::size_t ok = 0;
    for (const auto& m : rows)
        ok += m.finished && !m.sloViolated;
    return rows.empty() ? 0.0
                        : static_cast<double>(ok) /
                              static_cast<double>(rows.size());
}

/** Pool episode @p d into @p total (identical registry layouts):
 *  values add, and distribution counts and means pool. */
void
accumulate(obs::StatDump& total, const obs::StatDump& d)
{
    if (total.empty()) {
        total = d;
        return;
    }
    if (total.size() != d.size())
        fatal("perfbench: episodes registered different stats");
    for (std::size_t i = 0; i < d.size(); ++i) {
        obs::StatValue& t = total[i];
        const obs::StatValue& s = d[i];
        if (t.name != s.name)
            fatal("perfbench: episodes registered different stats");
        const double n = static_cast<double>(t.count + s.count);
        if (n > 0.0) {
            t.mean = (t.mean * static_cast<double>(t.count) +
                      s.mean * static_cast<double>(s.count)) /
                     n;
        }
        t.count += s.count;
        t.value += s.value;
    }
}

/** Highest peak GPU KV occupancy over capacity on any instance. */
double
peakKvUtil(const obs::StatDump& d)
{
    double util = 0.0;
    for (const auto& s : d) {
        const auto at = s.name.rfind(".kv.peak_gpu_used");
        if (at != std::string::npos) {
            util = std::max(util,
                            s.value / stat(d, s.name.substr(0, at) +
                                                  ".kv.gpu_capacity"));
        }
    }
    return util;
}

int
runEndToEnd(const Workload& w, const Args& a)
{
    constexpr int kMinReps = 3;
    constexpr int kMaxReps = 200;
    // Set-up takes milliseconds, so each repetition also samples it on
    // its own this many times; spreading the samples over the run
    // keeps one noisy moment of the host from setting the median.
    constexpr int kSetupOnlyPerRep = 3;
    std::vector<double> setup_s, tokens_per_s;
    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0, first_digest = 0;
    std::uint64_t crashes = 0, retries = 0;
    std::vector<qoe::RequestMetrics> rows;

    // Generate, construct and submit episode @p e; the seconds taken.
    workload::Trace trace;
    std::optional<cluster::RunContext> ctx;
    auto set_up = [&](int e) {
        ctx.reset();
        const double t0 = cpuSeconds();
        trace = w.trace(a.seed, e);
        ctx.emplace(w.config(a.seed, e));
        ctx->submit(trace);
        return cpuSeconds() - t0;
    };

    const auto start = Clock::now();
    std::vector<double> probe_s;
    for (int rep = 0; rep < kMinReps ||
                      (secondsSince(start) < a.seconds && rep < kMaxReps);
         ++rep) {
        const double probe_before = speedProbe();
        std::vector<double> rep_setup_s;
        for (int i = 0; i < kSetupOnlyPerRep; ++i) {
            double setup = 0.0;
            for (int e = 0; e < w.episodes; ++e)
                setup += set_up(e);
            rep_setup_s.push_back(setup);
        }
        double setup = 0.0, host = 0.0, tokens = 0.0;
        Digest digest;
        for (int e = 0; e < w.episodes; ++e) {
            setup += set_up(e);
            const double t1 = cpuSeconds();
            ctx->run();
            cluster::RunResult result = ctx->result();
            host += cpuSeconds() - t1;
            tokens += generatedTokens(result.statsDump);

            checkRun(w, ctx->config(), trace, result, errors);
            attempted += trace.size();
            failed += result.numUnfinished;
            crashes += result.numCrashes;
            retries += result.numRetries;
            digest.add(digestOf(result));
            if (rep == 0) {
                rows.insert(rows.end(),
                            std::make_move_iterator(result.perRequest.begin()),
                            std::make_move_iterator(result.perRequest.end()));
            }
        }
        rep_setup_s.push_back(setup);
        probe_s.push_back(0.5 * (probe_before + speedProbe()));
        // Reference-host seconds per host second of this repetition.
        const double speed = kProbeReferenceS / probe_s.back();
        for (double s : rep_setup_s)
            setup_s.push_back(s * speed);
        tokens_per_s.push_back(tokens / (host * speed));
        if (rep == 0) {
            first_digest = digest.value();
        } else if (digest.value() != first_digest) {
            errors.push_back(w.name + ": same-seed replay " +
                             std::to_string(rep) + " diverged");
        }
    }

    checkFaultsFired(w, a, crashes, retries, errors);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const qoe::AggregateMetrics agg = qoe::aggregateMetrics(rows);
    std::printf("# %s seed %llu: %zu repetitions of %d episode(s); TTFT "
                "percentiles over %zu finished of %zu submitted "
                "requests\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                tokens_per_s.size(), w.episodes, agg.numFinished,
                agg.numRequests);
    std::printf("# host speed probe: median %.4g s per repetition, %.4g s "
                "on the reference host\n",
                median(probe_s), kProbeReferenceS);
    std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s"},
        {"sim_tokens_per_s", median(tokens_per_s), "tokens/s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MB"},
        {"sim_ttft_p50_s", agg.p50Ttft, "sim_s"},
        {"sim_ttft_p99_s", agg.p99Ttft, "sim_s"},
        {"sim_slo_attainment", sloAttainment(rows), "ratio"},
        {"sim_goodput",
         static_cast<double>(agg.numFinished) /
             static_cast<double>(agg.numRequests),
         "ratio"},
    };
    printResult(errors.empty(), attempted, failed, metrics);
    return reportErrors(errors);
}

void
writeRequestsCsv(const std::string& path,
                 const std::vector<qoe::RequestMetrics>& rows)
{
    std::ofstream out(path);
    if (!out)
        fatal("perfbench: cannot write " + path);
    out << "id,class,arrival,ttft,tpot,e2e,qoe,migrations,fail_reason\n";
    static const char* const kReasons[] = {"", "retry_budget", "shed",
                                           "deadline"};
    for (const auto& m : rows) {
        const char* reason =
            m.finished ? ""
                       : (m.failed ? kReasons[static_cast<int>(
                                         m.failReason)]
                                   : "unfinished");
        out << m.id << ',' << workload::sloClassName(m.sloClass) << ','
            << bench::jsonNumber(m.arrival) << ','
            << bench::jsonNumber(m.ttft) << ','
            << bench::jsonNumber(m.meanTpot) << ','
            << bench::jsonNumber(m.e2eLatency) << ','
            << bench::jsonNumber(m.qoe) << ',' << m.migrationCount << ','
            << reason << '\n';
    }
}

void
writeLayersJson(const std::string& path, const Workload& w,
                const Args& a, const std::vector<Metric>& metrics)
{
    std::ofstream out(path);
    if (!out)
        fatal("perfbench: cannot write " + path);
    out << "{\n  " << bench::jsonMeta() << ",\n  \"workload\": \""
        << w.name << "\",\n  \"seed\": " << a.seed << ",\n  \"per_layer\": [\n";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << "    {\"name\": \"" << metrics[i].name
            << "\", \"value\": " << bench::jsonNumber(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\", \"moves\": \""
            << kLayers[i].moves << "\"}"
            << (i + 1 < metrics.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
}

int
runTraced(const Workload& w, const Args& a)
{
    constexpr int kProbeSamples = 64;
    const auto start = Clock::now();
    Spans spans;
    std::vector<std::string> errors;

    // Every episode runs under spans; the counters pool across them.
    double generate_s = 0.0, construct_s = 0.0, submit_s = 0.0;
    double run_s = 0.0, score_s = 0.0, peak_util = 0.0;
    std::uint64_t events = 0, failed = 0;
    std::size_t attempted = 0;
    obs::StatDump d;
    std::vector<qoe::RequestMetrics> rows;
    // Episode 0's operating point drives the probe, the trace-overhead
    // runs and the layer replays.
    const cluster::SystemConfig cfg = w.config(a.seed, 0);
    workload::Trace trace0;
    cluster::RunResult result0;
    TokenCount kv_capacity = 0;
    for (int e = 0; e < w.episodes; ++e) {
        const cluster::SystemConfig ecfg = w.config(a.seed, e);
        workload::Trace trace;
        std::optional<cluster::RunContext> ctx;
        cluster::RunResult result;
        generate_s += spans.time("workload", "workload.generate",
                                 [&] { trace = w.trace(a.seed, e); });
        construct_s += spans.time("cluster", "cluster.construct",
                                  [&] { ctx.emplace(ecfg); });
        submit_s += spans.time("cluster", "cluster.submit",
                               [&] { ctx->submit(trace); });
        run_s += spans.time("sim", "sim.run", [&] { events += ctx->run(); });
        score_s += spans.time("qoe", "qoe.score",
                              [&] { result = ctx->result(); });
        kv_capacity = ctx->cluster().kvCapacityTokens();
        ctx.reset();

        checkRun(w, ecfg, trace, result, errors);
        accumulate(d, result.statsDump);
        peak_util = std::max(peak_util, peakKvUtil(result.statsDump));
        attempted += trace.size();
        failed += result.numUnfinished;
        rows.insert(rows.end(), result.perRequest.begin(),
                    result.perRequest.end());
        if (e == 0) {
            trace0 = std::move(trace);
            result0 = std::move(result);
        }
    }
    checkFaultsFired(
        w, a, static_cast<std::uint64_t>(stat(d, "cluster.fault.crashes")),
        static_cast<std::uint64_t>(stat(d, "cluster.fault.retries")),
        errors);
    const std::uint64_t digest0 = digestOf(result0);

    std::vector<double> aggregate_s;
    for (int i = 0; i < 5; ++i) {
        aggregate_s.push_back(spans.time("qoe", "qoe.aggregate", [&] {
            if (qoe::aggregateMetrics(rows).numRequests != attempted)
                errors.push_back(w.name + ": aggregate lost rows");
        }));
    }

    // Episode 0 again, stepped to sample its operating point; stepping
    // must not change the outcome.
    perfbench::Probe probe;
    spans.time("sim", "probe.sample", [&] {
        cluster::RunResult stepped;
        probe = perfbench::probeRun(cfg, trace0, result0.aggregate.makespan,
                                    kProbeSamples, stepped);
        if (digestOf(stepped) != digest0)
            errors.push_back(w.name + ": stepped replay diverged");
    });

    // Trace-sink overhead: untraced vs traced runs of episode 0,
    // alternated once its memory is warm; the traced run must not
    // change the outcome either.
    std::vector<double> plain_s, traced_s;
    const double overhead_budget = 0.5 * a.seconds;
    cluster::SystemConfig traced_cfg = cfg;
    traced_cfg.telemetry.traceEnabled = true;
    while (traced_s.size() < 2 ||
           (secondsSince(start) < overhead_budget && traced_s.size() < 5)) {
        for (const bool on : {true, false}) {
            cluster::RunContext run_ctx(on ? traced_cfg : cfg);
            run_ctx.submit(trace0);
            const double s = spans.time(
                "obs", on ? "obs.traced_run" : "obs.untraced_run",
                [&] { run_ctx.run(); });
            (on ? traced_s : plain_s).push_back(s);
            if (digestOf(run_ctx.result()) != digest0)
                errors.push_back(w.name + ": traced replay diverged");
        }
    }

    // Layer replays at episode 0's operating point.
    double queue_ns = 0.0, placement_ns = 0.0, kv_ns = 0.0;
    perfbench::PlanReplay plan;
    perfbench::PredictReplay predict;
    spans.time("sim", "replay.event_queue", [&] {
        queue_ns = perfbench::replayEventQueue(
            static_cast<std::size_t>(probe.meanPendingEvents + 0.5),
            a.seed);
    });
    spans.time("core", "replay.plan", [&] {
        plan = perfbench::replayPlan(
            cfg, kv_capacity, trace0,
            static_cast<std::size_t>(probe.meanHosted + 0.5));
    });
    spans.time("core", "replay.placement", [&] {
        placement_ns =
            perfbench::replayPlacement(cfg, probe.views, trace0);
    });
    spans.time("model", "replay.kv_pool", [&] {
        kv_ns = perfbench::replayKvPool(
            kv_capacity, cfg.kvBlockSizeTokens,
            static_cast<std::size_t>(probe.meanLiveKv + 0.5), trace0);
    });
    spans.time("predict", "replay.predictor", [&] {
        // Workloads without a predictor replay the profile predictor
        // alpaca-spec runs, so the layer is measured everywhere.
        predict::PredictorConfig pc = cfg.predictor;
        if (pc.type == predict::PredictorType::None)
            pc.type = predict::PredictorType::Profile;
        std::vector<const qoe::RequestMetrics*> done;
        for (const auto& m : result0.perRequest) {
            if (m.finished)
                done.push_back(&m);
        }
        std::sort(done.begin(), done.end(),
                  [](const qoe::RequestMetrics* x,
                     const qoe::RequestMetrics* y) {
                      const double fx = x->arrival + x->e2eLatency;
                      const double fy = y->arrival + y->e2eLatency;
                      return fx != fy ? fx < fy : x->id < y->id;
                  });
        std::vector<std::size_t> order;
        const RequestId first_id = trace0.requests.front().id;
        for (const auto* m : done)
            order.push_back(static_cast<std::size_t>(m->id - first_id));
        predict = perfbench::replayPredictor(pc, trace0, order);
    });

    const double tokens = instanceSum(d, "engine.decode_tokens");
    const double builds = instanceSum(d, "plan.builds");
    const double reuses = instanceSum(d, "plan.reuses");
    const double decisions = stat(d, "cluster.view.builds");
    double batch_n = 0.0, batch_sum = 0.0;
    for (const auto& s : d) {
        if (s.name.rfind(".batch.decode_size") != std::string::npos) {
            batch_n += static_cast<double>(s.count);
            batch_sum += s.mean * static_cast<double>(s.count);
        }
    }
    auto per = [](double x, double y) { return y > 0.0 ? x / y : 0.0; };

    // In kLayers order; the names are checked against the table.
    const std::pair<const char*, double> values[] = {
        {"workload.generate_s", generate_s},
        {"cluster.construct_s", construct_s},
        {"cluster.submit_s", submit_s},
        {"sim.run_s", run_s},
        {"sim.events", static_cast<double>(events)},
        {"sim.events_per_ktoken",
         per(static_cast<double>(events), tokens / 1000.0)},
        {"sim.queue.ns_per_op", queue_ns},
        {"cluster.engine.iterations", instanceSum(d, "engine.iterations")},
        {"cluster.engine.decode_tokens", tokens},
        {"cluster.engine.batch_mean", per(batch_sum, batch_n)},
        {"cluster.engine.prefills", instanceSum(d, "engine.prefills")},
        {"cluster.engine.swap_outs", instanceSum(d, "engine.swap_outs")},
        {"cluster.engine.swap_ins", instanceSum(d, "engine.swap_ins")},
        {"cluster.migrations", stat(d, "cluster.migrations")},
        {"cluster.host_ns_per_token", per(run_s * 1e9, tokens)},
        {"cluster.host_ns_per_decision", per(run_s * 1e9, decisions)},
        {"cluster.slo.rekeys_per_token",
         per(stat(d, "cluster.slo.rekeys"), tokens)},
        {"core.plan.builds", builds},
        {"core.plan.reuses", reuses},
        {"core.plan.repairs", instanceSum(d, "plan.repairs")},
        {"core.plan.full_walks", instanceSum(d, "plan.full_walks")},
        {"core.plan.reuse_ratio", per(reuses, reuses + builds)},
        {"core.plan.build_ns", plan.buildNs},
        {"core.plan.reuse_ns", plan.reuseNs},
        {"core.view.decisions", decisions},
        {"core.view.refreshes_per_decision",
         per(stat(d, "cluster.view.refreshes"), decisions)},
        {"core.placement.ns_per_decision", placement_ns},
        {"model.kv.peak_util", peak_util},
        {"model.kv.ns_per_op", kv_ns},
        {"predict.ns_per_query", predict.queryNs},
        {"predict.ns_per_observe", predict.observeNs},
        {"predict.query_ns_growth", predict.queryGrowth},
        {"fault.crashes", stat(d, "cluster.fault.crashes")},
        {"fault.drains", stat(d, "cluster.fault.drains")},
        {"fault.link_failures", stat(d, "cluster.fault.link_failures")},
        {"fault.retries", stat(d, "cluster.fault.retries")},
        {"fault.shed", stat(d, "cluster.fault.shed")},
        {"fault.terminal_failures",
         stat(d, "cluster.fault.terminal_failures")},
        {"fault.deadline_failed", classSum(d, "deadline_failed")},
        {"fault.demoted", classSum(d, "demoted")},
        {"qoe.score_s", score_s},
        {"qoe.aggregate_s", median(aggregate_s)},
        {"obs.trace_overhead", per(median(traced_s), median(plain_s))},
    };
    static_assert(std::size(values) == std::size(kLayers));
    std::vector<Metric> metrics;
    for (std::size_t i = 0; i < std::size(values); ++i) {
        if (std::string(values[i].first) != kLayers[i].name)
            fatal("perfbench: per-layer values out of table order");
        metrics.push_back(
            {kLayers[i].name, values[i].second, kLayers[i].unit});
    }

    const std::string base = a.outDir + "/" + w.name;
    writeRequestsCsv(base + "-requests.csv", rows);
    spans.write(base + "-spans.json", "perfbench.traced." + w.name);
    writeLayersJson(base + "-layers.json", w, a, metrics);
    std::printf("# %s seed %llu: traced run of %d episode(s), %zu "
                "requests; wrote %s-{requests.csv,spans.json,"
                "layers.json}\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                w.episodes, attempted, base.c_str());
    printResult(errors.empty(), attempted, failed, metrics);
    return reportErrors(errors);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::atoi(val);
        else if (key == "--trace")
            a.trace = std::atoi(val) != 0;
        else if (key == "--out")
            a.outDir = val;
        else
            fatal("perfbench: unknown argument '" + key + "'");
    }
    if (argc % 2 == 0)
        fatal("perfbench: arguments come in --key value pairs");
    if (a.seconds < 1)
        fatal("perfbench: --seconds must be at least 1");
    return a;
}

} // namespace

int
main(int argc, char** argv)
try {
#ifdef PERFBENCH_UNFIT_BUILD
    (void)argc;
    (void)argv;
    std::fprintf(stderr, "perfbench: refusing to measure an unoptimised "
                         "or sanitized build\n");
    return 3;
#else
    const Args a = parseArgs(argc, argv);
    const Workload* w = perfbench::findWorkload(a.workload);
    if (w == nullptr)
        fatal("perfbench: unknown workload '" + a.workload + "'");
    setQuiet(true);
    std::printf("# %s\n", bench::jsonMeta().c_str());
    return a.trace ? runTraced(*w, a) : runEndToEnd(*w, a);
#endif
} catch (const pascal::FatalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
}
