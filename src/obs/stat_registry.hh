/**
 * @file
 * Gem5-style statistics registry: typed Counter/Gauge/Distribution
 * handles registered by hierarchical dotted name
 * ("instance.3.plan.builds", "cluster.view.refreshes").
 *
 * Registration is non-owning for counters: components keep their
 * plain std::uint64_t members and hand the registry a pointer, so the
 * hot-path increment is exactly the bare `++counter` it always was —
 * the registry only reads at dump() time. Gauges are polled functors
 * (KV pool occupancy, derived totals); distributions are
 * registry-owned Welford summaries components add() into through a
 * cached pointer.
 *
 * dump() walks the entries in registration order (which is itself
 * deterministic — construction order of the owning Cluster), so two
 * runs of the same configuration produce byte-identical dumps, and a
 * serial sweep matches a multi-threaded one row for row.
 */

#ifndef PASCAL_OBS_STAT_REGISTRY_HH
#define PASCAL_OBS_STAT_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/common/stats.hh"

namespace pascal
{
namespace obs
{

/** What a registered stat measures. */
enum class StatKind : std::uint8_t
{
    Counter,      //!< Monotonic event count (integer).
    Gauge,        //!< Point-in-time level, polled at dump.
    Distribution, //!< Welford summary of a sample stream.
};

/** Name of @p kind for reports ("counter"/"gauge"/"distribution"). */
const char* statKindName(StatKind kind);

/** One dumped stat. Counters/gauges use `value`; distributions use
 *  the count/mean/min/max/stddev block (min/max are 0 when empty so
 *  serialized dumps never carry infinities). */
struct StatValue
{
    std::string name;
    StatKind kind = StatKind::Counter;
    double value = 0.0;
    std::size_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double stddev = 0.0;
};

bool operator==(const StatValue& a, const StatValue& b);
inline bool
operator!=(const StatValue& a, const StatValue& b)
{
    return !(a == b);
}

/** A full registry dump in registration order. */
using StatDump = std::vector<StatValue>;

/** Find @p name in @p dump (nullptr if absent). */
const StatValue* findStat(const StatDump& dump, const std::string& name);

/** Hierarchical stat registry (see file header). */
class StatRegistry
{
  public:
    /** Register a component-owned monotonic counter. @p ptr must
     *  outlive the registry. */
    void counter(std::string name, const std::uint64_t* ptr);

    /** Register a derived counter polled at dump() (totals, counts
     *  held in another type). */
    void counter(std::string name, std::function<std::uint64_t()> poll);

    /** Register a polled gauge. */
    void gauge(std::string name, std::function<double()> poll);

    /** Register a registry-owned distribution and return the summary
     *  the component add()s samples into. Stable address for the
     *  registry's lifetime. */
    stats::Summary& distribution(std::string name);

    /** Snapshot every registered stat, in registration order. */
    StatDump dump() const;

    std::size_t size() const { return entries.size(); }

  private:
    struct Entry
    {
        std::string name;
        StatKind kind;
        const std::uint64_t* counterPtr = nullptr;
        std::function<std::uint64_t()> counterPoll;
        std::function<double()> gaugePoll;
        const stats::Summary* dist = nullptr;
    };

    /** Duplicate names are registration bugs; panic early. */
    void checkName(const std::string& name) const;

    std::vector<Entry> entries;
    std::deque<stats::Summary> ownedDists; //!< Stable addresses.
};

} // namespace obs
} // namespace pascal

#endif // PASCAL_OBS_STAT_REGISTRY_HH
