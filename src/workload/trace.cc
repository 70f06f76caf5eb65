#include "src/workload/trace.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "src/common/log.hh"

namespace pascal
{
namespace workload
{

std::string
Trace::describe() const
{
    if (!provenance.generated)
        return std::to_string(size()) + " requests (external)";
    std::ostringstream out;
    out << provenance.profile << " n=" << provenance.n
        << " rate=" << provenance.ratePerSec;
    if (provenance.seedKnown)
        out << " seed=" << provenance.seed;
    return out.str();
}

void
Trace::sortByArrival()
{
    std::stable_sort(requests.begin(), requests.end(),
        [](const RequestSpec& a, const RequestSpec& b) {
            if (a.arrival != b.arrival)
                return a.arrival < b.arrival;
            return a.id < b.id;
        });
}

void
Trace::validate() const
{
    std::unordered_set<RequestId> seen;
    Time prev = -1.0;
    for (const auto& spec : requests) {
        spec.validate();
        if (!seen.insert(spec.id).second)
            fatal("Trace: duplicate request id " + std::to_string(spec.id));
        if (spec.arrival < prev)
            fatal("Trace: arrivals not sorted (call sortByArrival)");
        prev = spec.arrival;
    }
}

TokenCount
Trace::totalGeneratedTokens() const
{
    TokenCount total = 0;
    for (const auto& spec : requests)
        total += spec.reasoningTokens + spec.answerTokens;
    return total;
}

void
Trace::toCsv(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("Trace::toCsv: cannot open '" + path + "' for writing");
    // Enough digits that fromCsv() reads back every arrival exactly.
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "id,arrival,prompt,reasoning,answer,start_in_answering,"
           "dataset,slo_class\n";
    for (const auto& s : requests) {
        out << s.id << ',' << s.arrival << ',' << s.promptTokens << ','
            << s.reasoningTokens << ',' << s.answerTokens << ','
            << (s.startInAnswering ? 1 : 0) << ',' << s.dataset << ','
            << static_cast<int>(s.sloClass) << '\n';
    }
}

Trace
Trace::fromCsv(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("Trace::fromCsv: cannot open '" + path + "'");

    Trace trace;
    std::string line;
    if (!std::getline(in, line))
        fatal("Trace::fromCsv: empty file '" + path + "'");

    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream ss(line);
        std::string field;
        RequestSpec s;
        try {
            std::getline(ss, field, ',');
            s.id = std::stoll(field);
            std::getline(ss, field, ',');
            s.arrival = std::stod(field);
            std::getline(ss, field, ',');
            s.promptTokens = std::stoll(field);
            std::getline(ss, field, ',');
            s.reasoningTokens = std::stoll(field);
            std::getline(ss, field, ',');
            s.answerTokens = std::stoll(field);
            std::getline(ss, field, ',');
            s.startInAnswering = std::stoi(field) != 0;
            std::getline(ss, field, ',');
            s.dataset = field;
            // Optional trailing slo_class column; legacy 7-column
            // traces default to Standard.
            if (std::getline(ss, field, ',')) {
                int cls = std::stoi(field);
                if (cls < 0 ||
                    cls >= static_cast<int>(kNumSloClasses)) {
                    fatal("Trace::fromCsv: bad slo_class on line " +
                          std::to_string(line_no) + " in '" + path +
                          "'");
                }
                s.sloClass = static_cast<SloClass>(cls);
            }
        } catch (const std::exception&) {
            fatal("Trace::fromCsv: malformed line " +
                  std::to_string(line_no) + " in '" + path + "'");
        }
        // Before sortByArrival(): a NaN arrival would break its order.
        s.validate();
        trace.requests.push_back(std::move(s));
    }
    trace.sortByArrival();
    trace.validate();
    return trace;
}

Trace
Trace::merge(const Trace& a, const Trace& b)
{
    Trace out;
    out.requests.reserve(a.size() + b.size());
    out.requests.insert(out.requests.end(), a.requests.begin(),
                        a.requests.end());
    out.requests.insert(out.requests.end(), b.requests.begin(),
                        b.requests.end());
    out.sortByArrival();
    out.validate();
    return out;
}

} // namespace workload
} // namespace pascal
