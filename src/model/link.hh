/**
 * @file
 * Serializing bandwidth link with FIFO queueing.
 *
 * Models a shared transfer resource (a node's PCIe host link, or a
 * node's fabric ingress port). Transfers submitted while the link is
 * busy queue behind earlier ones, which is how the simulator reproduces
 * the paper's KV-migration bandwidth contention (Section V-C: several
 * instances migrating to the same target at once).
 */

#ifndef PASCAL_MODEL_LINK_HH
#define PASCAL_MODEL_LINK_HH

#include <functional>
#include <string>

#include "src/common/types.hh"
#include "src/sim/simulator.hh"

namespace pascal
{
namespace model
{

/** FIFO bandwidth link bound to a Simulator. */
class Link
{
  public:
    /**
     * @param sim Owning simulator (must outlive the link).
     * @param bytes_per_sec Sustained link bandwidth (> 0).
     * @param name Diagnostic name.
     */
    Link(sim::Simulator& sim, double bytes_per_sec, std::string name);

    /**
     * Enqueue a transfer of @p bytes; @p on_complete fires when it
     * finishes (after any queueing delay).
     *
     * @return Absolute completion time.
     */
    Time submit(Bytes bytes, std::function<void()> on_complete);

    /** Earliest time a new transfer could start. */
    Time busyUntil() const { return busyUntilTime; }

  private:
    sim::Simulator& sim;
    double rate;
    std::string linkName;
    Time busyUntilTime = 0.0;
};

} // namespace model
} // namespace pascal

#endif // PASCAL_MODEL_LINK_HH
