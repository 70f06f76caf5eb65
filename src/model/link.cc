#include "src/model/link.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace pascal
{
namespace model
{

Link::Link(sim::Simulator& sim, double bytes_per_sec, std::string name)
    : sim(sim), rate(bytes_per_sec), linkName(std::move(name))
{
    if (bytes_per_sec <= 0.0)
        fatal("Link '" + linkName + "' needs positive bandwidth");
}

Time
Link::submit(Bytes bytes, std::function<void()> on_complete)
{
    if (bytes < 0)
        panic("Link '" + linkName + "': negative transfer size");

    Time now = sim.now();
    Time start = std::max(now, busyUntilTime);
    Time duration = static_cast<double>(bytes) / rate;
    Time done = start + duration;

    busyUntilTime = done;

    if (on_complete)
        sim.at(done, std::move(on_complete));
    return done;
}

} // namespace model
} // namespace pascal
