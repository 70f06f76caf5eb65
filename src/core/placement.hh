/**
 * @file
 * Instance-level placement interface and the phase-unaware baseline.
 *
 * The paper's baselines place new requests on the instance with the
 * smallest KV footprint and never migrate at phase transitions
 * (Section V-A).
 */

#ifndef PASCAL_CORE_PLACEMENT_HH
#define PASCAL_CORE_PLACEMENT_HH

#include <string>

#include "src/core/cluster_view.hh"
#include "src/predict/predictor.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace core
{

/** Instance-level scheduler: routes requests to instances. */
class Placement
{
  public:
    virtual ~Placement() = default;

    virtual std::string name() const = 0;

    /** Choose the instance for a newly arrived (reasoning) request. */
    virtual InstanceId placeNew(const ClusterView& view,
                                const workload::Request& req) = 0;

    /**
     * Choose the instance for a request whose reasoning phase just
     * ended. Returning @p home means "do not migrate". The view's
     * predictedKvFootprintTokens is not filled for this decision.
     */
    virtual InstanceId placeTransition(const ClusterView& view,
                                       const workload::Request& req,
                                       InstanceId home) = 0;

    /** Wire a length predictor (not owned; may be nullptr). Only
     *  speculative variants consult it; the default ignores it. */
    virtual void setPredictor(const predict::LengthPredictor* p)
    {
        (void)p;
    }
};

/** Min-KV-footprint routing, no migration (the baselines' router). */
class BaselinePlacement : public Placement
{
  public:
    std::string name() const override { return "min-kv/no-migration"; }

    InstanceId placeNew(const ClusterView& view,
                        const workload::Request& req) override;

    InstanceId placeTransition(const ClusterView& view,
                               const workload::Request& req,
                               InstanceId home) override;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_PLACEMENT_HH
