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
    bytesAcc += bytes;
    busyTimeAcc += duration;
    ++transfers;

    if (on_complete)
        sim.at(done, std::move(on_complete));
    return done;
}

double
Link::utilization(Time now) const
{
    if (now <= 0.0)
        return 0.0;
    return std::min(1.0, busyTimeAcc / now);
}

} // namespace model
} // namespace pascal
