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
    : datasetId(dataset_id), specData(std::move(s))
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
