/**
 * @file
 * Shared byte-identical RunResult comparison for determinism and
 * invariance tests: two runs are identical when their canonical texts
 * (cluster::canonicalText) are. Any divergence between two runs of the
 * same {config, trace} — across threads, across run chunking, or
 * across the force twins — is a bug.
 */

#ifndef PASCAL_TESTS_RUN_RESULT_UTIL_HH
#define PASCAL_TESTS_RUN_RESULT_UTIL_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "src/cluster/serving_system.hh"
#include "src/obs/stat_registry.hh"

namespace pascal
{
namespace test
{

/** Registered stat @p name in @p dump; a test failure (and 0) when it
 *  is not registered. */
inline double
statValue(const obs::StatDump& dump, const std::string& name)
{
    const obs::StatValue* s = obs::findStat(dump, name);
    EXPECT_NE(s, nullptr) << "stat '" << name << "' not registered";
    return s == nullptr ? 0.0 : s->value;
}

/** Sum of "instance.<i>.<suffix>" over every instance in @p dump. */
inline double
instanceStatSum(const obs::StatDump& dump, const std::string& suffix)
{
    const std::string tail = "." + suffix;
    double sum = 0.0;
    for (const auto& s : dump) {
        if (s.name.rfind("instance.", 0) == 0 &&
            s.name.size() > tail.size() &&
            s.name.compare(s.name.size() - tail.size(), tail.size(),
                           tail) == 0) {
            sum += s.value;
        }
    }
    return sum;
}

/**
 * Expects @p a and @p b to render the same canonicalText() (every
 * RunResult field, to the bit). On a mismatch it reports the first
 * differing line of each.
 */
inline void
expectIdentical(const cluster::RunResult& a, const cluster::RunResult& b)
{
    const std::string ta = cluster::canonicalText(a);
    const std::string tb = cluster::canonicalText(b);
    if (ta == tb)
        return;
    std::size_t pos = 0;
    while (pos < ta.size() && pos < tb.size() && ta[pos] == tb[pos])
        ++pos;
    const std::size_t begin = ta.rfind('\n', pos == 0 ? 0 : pos - 1);
    const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
    auto lineAt = [from](const std::string& t) {
        if (from >= t.size())
            return std::string("<end of text>");
        return t.substr(from, t.find('\n', from) - from);
    };
    ADD_FAILURE() << "RunResults differ; first differing line:\n  a: "
                  << lineAt(ta) << "\n  b: " << lineAt(tb);
}

} // namespace test
} // namespace pascal

#endif // PASCAL_TESTS_RUN_RESULT_UTIL_HH
