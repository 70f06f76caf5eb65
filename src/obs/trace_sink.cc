#include "src/obs/trace_sink.hh"

#include <cinttypes>
#include <cstdio>
#include <unordered_map>

namespace pascal
{
namespace obs
{

const char*
traceCatName(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Iteration:
        return "iteration";
      case TraceCat::Plan:
        return "plan";
      case TraceCat::Admission:
        return "admission";
      case TraceCat::Eviction:
        return "eviction";
      case TraceCat::Phase:
        return "phase";
      case TraceCat::Migration:
        return "migration";
      case TraceCat::Slo:
        return "slo";
      case TraceCat::Fault:
        return "fault";
      case TraceCat::Retry:
        return "retry";
    }
    return "unknown";
}

const char*
traceNameStr(TraceName name)
{
    switch (name) {
      case TraceName::Iteration:
        return "iteration";
      case TraceName::PlanReuse:
        return "reuse";
      case TraceName::PlanFullWalk:
        return "full_walk";
      case TraceName::Admit:
        return "admit";
      case TraceName::Evict:
        return "evict";
      case TraceName::PhaseStay:
        return "stay";
      case TraceName::PhaseMigrate:
        return "migrate";
      case TraceName::KvTransfer:
        return "kv_transfer";
      case TraceName::SloOk:
        return "ok";
      case TraceName::SloViolated:
        return "violated";
      case TraceName::Crash:
        return "crash";
      case TraceName::Recover:
        return "recover";
      case TraceName::DrainStart:
        return "drain_start";
      case TraceName::DrainDeadline:
        return "drain_deadline";
      case TraceName::StragglerStart:
        return "straggler_start";
      case TraceName::StragglerEnd:
        return "straggler_end";
      case TraceName::LinkFail:
        return "link_fail";
      case TraceName::RetryScheduled:
        return "scheduled";
      case TraceName::Shed:
        return "shed";
      case TraceName::TerminalFail:
        return "terminal_fail";
      case TraceName::ClassShed:
        return "class_shed";
      case TraceName::DeadlineExceeded:
        return "deadline_exceeded";
      case TraceName::Demoted:
        return "demoted";
    }
    return "unknown";
}

namespace
{

const char*
argKeyStr(TraceArg key)
{
    switch (key) {
      case TraceArg::Value:
        return "v";
      case TraceArg::Request:
        return "req";
      case TraceArg::Reason:
        return "reason";
      case TraceArg::Batch:
        return "batch";
      case TraceArg::Tokens:
        return "tokens";
      case TraceArg::None:
        break;
    }
    return "v";
}

/** Microsecond timestamp with fixed sub-microsecond precision — the
 *  one float format in the export, so byte identity only needs
 *  deterministic virtual time. */
void
appendUs(std::string& out, double seconds)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
    out += buf;
}

} // namespace

TraceSink::TraceSink(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    ring.reserve(capacity);
    ring.resize(0);
    // Capacity is fixed up front: push() never reallocates.
    ringCapacity = capacity;
}

void
TraceSink::push(const TraceEvent& e)
{
    ++recorded;
    if (ring.size() < ringCapacity) {
        ring.push_back(e);
        return;
    }
    // Guard before warnOnce: the message is constructed per call, and
    // this is the steady-state path once the ring has wrapped.
    if (wrapWarn.calls() == 0) {
        warnOnce(wrapWarn,
                 "trace ring full (" + std::to_string(ringCapacity) +
                     " events); oldest events are being dropped");
    }
    ring[head] = e;
    if (++head == ringCapacity)
        head = 0;
}

template <typename Fn>
void
TraceSink::forEach(Fn&& fn) const
{
    // Oldest first: once wrapped, `head` is the oldest slot.
    const std::size_t n = ring.size();
    for (std::size_t i = 0; i < n; ++i)
        fn(ring[(head + i) % n]);
}

void
TraceSink::instant(TraceCat cat, TraceName name, std::int32_t tid,
                   double ts, TraceArg arg_key, std::int64_t arg)
{
    TraceEvent e;
    e.ts = ts;
    e.tid = tid;
    e.ph = 'i';
    e.cat = cat;
    e.name = name;
    e.argKey = arg_key;
    e.arg = arg;
    push(e);
}

void
TraceSink::complete(TraceCat cat, TraceName name, std::int32_t tid,
                    double ts, double dur, TraceArg arg_key,
                    std::int64_t arg)
{
    TraceEvent e;
    e.ts = ts;
    e.dur = dur;
    e.tid = tid;
    e.ph = 'X';
    e.cat = cat;
    e.name = name;
    e.argKey = arg_key;
    e.arg = arg;
    push(e);
}

void
TraceSink::asyncBegin(TraceCat cat, TraceName name, std::int32_t tid,
                      double ts, std::uint64_t id, TraceArg arg_key,
                      std::int64_t arg)
{
    TraceEvent e;
    e.ts = ts;
    e.id = id;
    e.tid = tid;
    e.ph = 'b';
    e.cat = cat;
    e.name = name;
    e.argKey = arg_key;
    e.arg = arg;
    push(e);
}

void
TraceSink::asyncEnd(TraceCat cat, TraceName name, std::int32_t tid,
                    double ts, std::uint64_t id)
{
    TraceEvent e;
    e.ts = ts;
    e.id = id;
    e.tid = tid;
    e.ph = 'e';
    e.cat = cat;
    e.name = name;
    push(e);
}

void
TraceSink::setReasonTable(const char* const* names, std::size_t n)
{
    reasonNames = names;
    numReasonNames = n;
}

std::uint64_t
TraceSink::numDropped() const
{
    return recorded - static_cast<std::uint64_t>(ring.size());
}

std::size_t
TraceSink::size() const
{
    return ring.size();
}

std::string
TraceSink::writeJson() const
{
    std::string out;
    out.reserve(ring.size() * 96 + 128);
    out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";

    // Async begin/end pairs are matched by (cat, id). Ring eviction
    // can orphan an end (its begin overwritten) or leave a span open
    // (end not yet recorded); the export drops the former and closes
    // the latter at the last timestamp so every emitted pair matches.
    std::unordered_map<std::uint64_t, std::uint32_t> openSpans;
    auto spanKey = [](const TraceEvent& e) {
        return (static_cast<std::uint64_t>(e.cat) << 56) ^ e.id;
    };
    double lastTs = 0.0;
    bool first = true;

    auto emit = [&](const TraceEvent& e) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\": \"";
        out += traceNameStr(e.name);
        out += "\", \"cat\": \"";
        out += traceCatName(e.cat);
        out += "\", \"ph\": \"";
        out += e.ph;
        out += "\", \"pid\": 0, \"tid\": ";
        out += std::to_string(e.tid);
        out += ", \"ts\": ";
        appendUs(out, e.ts);
        if (e.ph == 'X') {
            out += ", \"dur\": ";
            appendUs(out, e.dur);
        }
        if (e.ph == 'b' || e.ph == 'e') {
            out += ", \"id\": \"";
            out += std::to_string(e.id);
            out += "\"";
        }
        if (e.argKey != TraceArg::None) {
            out += ", \"args\": {\"";
            out += argKeyStr(e.argKey);
            out += "\": ";
            if (e.argKey == TraceArg::Reason && reasonNames != nullptr &&
                e.arg >= 0 &&
                static_cast<std::size_t>(e.arg) < numReasonNames) {
                out += "\"";
                out += reasonNames[static_cast<std::size_t>(e.arg)];
                out += "\"";
            } else {
                out += std::to_string(e.arg);
            }
            out += "}";
        }
        out += "}";
    };

    forEach([&](const TraceEvent& e) {
        if (e.ts > lastTs)
            lastTs = e.ts;
        if (e.ph == 'b') {
            ++openSpans[spanKey(e)];
        } else if (e.ph == 'e') {
            auto it = openSpans.find(spanKey(e));
            if (it == openSpans.end() || it->second == 0)
                return; // Orphaned by ring eviction: drop.
            if (--it->second == 0)
                openSpans.erase(it);
        }
        emit(e);
    });

    // Close spans still open at export so B/E pairing always holds.
    forEach([&](const TraceEvent& e) {
        if (e.ph != 'b')
            return;
        auto it = openSpans.find(spanKey(e));
        if (it == openSpans.end() || it->second == 0)
            return;
        --it->second;
        TraceEvent close = e;
        close.ph = 'e';
        close.ts = lastTs;
        close.argKey = TraceArg::None;
        emit(close);
    });

    out += "\n]}\n";
    return out;
}

} // namespace obs
} // namespace pascal
