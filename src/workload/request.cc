#include "src/workload/request.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace workload
{

void
RequestSpec::validate() const
{
    if (id < 0)
        fatal("RequestSpec: negative id");
    if (!std::isfinite(arrival))
        fatal("RequestSpec " + std::to_string(id) +
              ": arrival must be finite");
    if (arrival < 0.0)
        fatal("RequestSpec " + std::to_string(id) + ": negative arrival");
    if (promptTokens <= 0)
        fatal("RequestSpec " + std::to_string(id) +
              ": promptTokens must be positive");
    if (answerTokens <= 0)
        fatal("RequestSpec " + std::to_string(id) +
              ": answerTokens must be positive");
    if (startInAnswering) {
        if (reasoningTokens != 0)
            fatal("RequestSpec " + std::to_string(id) +
                  ": startInAnswering requires reasoningTokens == 0");
    } else if (reasoningTokens <= 0) {
        fatal("RequestSpec " + std::to_string(id) +
              ": reasoningTokens must be positive (prefill emits the "
              "first reasoning token)");
    }
}

DatasetId
DatasetTable::intern(const std::string& label)
{
    auto it = ids.find(label);
    if (it != ids.end())
        return it->second;
    if (ids.size() >= kNoDataset) {
        fatal("DatasetTable: more than " + std::to_string(ids.size()) +
              " distinct dataset labels in one trace; merge labels "
              "that share a length profile");
    }
    return ids.emplace(label, static_cast<DatasetId>(ids.size()))
        .first->second;
}

Request::Request(RequestSpec s, DatasetId dataset_id)
    : specData(std::move(s)), datasetId(dataset_id)
{
    specData.validate();
    lastAccount = specData.arrival;
    if (specData.startInAnswering) {
        // Reasoning already happened upstream; the </think> marker is
        // conceptually observed at arrival.
        reasoningEnd = specData.arrival;
    }
}

void
Request::emitTokenPanic() const
{
    panic("emitToken on finished request " + std::to_string(id()));
}

void
Request::settleStretch(const Time* end,
                       const std::uint32_t* decoded_before,
                       std::uint32_t from, std::uint32_t to)
{
    if (from >= to)
        return;
    // Progress already counts the span's tokens, so the span began at
    // generated - emitted; answer index k of its first token is that
    // count less the reasoning length (negative: a reasoning span).
    const auto emitted =
        static_cast<TokenCount>(decoded_before[to] - decoded_before[from]);
    const TokenCount first_k =
        generatedTokens - emitted - specData.reasoningTokens;
    PhaseBuckets& b = first_k < 0 ? reasoningBuckets : answeringBuckets;
    // Locals, so each accumulator's chain stays in a register.
    double executed = b.executed;
    Time last = lastAccount;
    // Answering tokens after the first fold. The first answering token
    // is always a wake, where the engine settles its span before
    // stampMilestones() sets firstAnswer, so a span folds all of its
    // tokens or none of them.
    if (firstAnswer < 0.0 || emitted == 0) {
        for (std::uint32_t i = from; i < to; ++i) {
            const double dt = end[i] - last;
            last = end[i];
            if (dt > 0.0)
                executed += dt;
        }
    } else {
        qoe::QoeFold fold = qoe;
        TokenCount k = first_k;
        for (std::uint32_t i = from; i < to; ++i) {
            const double dt = end[i] - last;
            last = end[i];
            if (dt > 0.0)
                executed += dt;
            if (decoded_before[i + 1] != decoded_before[i])
                fold.next(end[i], k++);
        }
        qoe = fold;
        if (bestEffortQoe) {
            k = first_k;
            for (std::uint32_t i = from; i < to; ++i) {
                if (decoded_before[i + 1] != decoded_before[i])
                    bestEffortQoe->next(end[i], k++);
            }
        }
    }
    b.executed = executed;
    lastAccount = last;
}

void
Request::completePrefill(Time now, TokenCount quantum)
{
    if (prefillDone)
        panic("double prefill for request " + std::to_string(id()));
    if (specData.startInAnswering)
        panic("prefill on a startInAnswering request " +
              std::to_string(id()));
    prefillDone = true;
    prefillEnd = now;
    emitToken(now, quantum);
}

void
Request::resetQuantum()
{
    quantumTokens = 0;
    quantaConsumed = 0;
}

} // namespace workload
} // namespace pascal
