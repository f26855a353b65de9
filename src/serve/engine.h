/**
 * @file
 * The serving-engine surface the dynamic-batching Router drives: a pool
 * of lane slots with the Free/Active/Draining lifecycle and one
 * stepInto() per engine step.
 *
 * Two implementations exist, both built on one BatchedController
 * (serve/batched_controller.h): BatchedDnc (single-process, a MemoryUnit
 * tile per lane) and PipelinedShardedLaneEngine
 * (src/shard/sharded_dnc.h), where each lane's external memory is
 * distributed over wire-connected tile workers. The Router is written
 * against this interface, so moving a deployment from one process to a
 * sharded fleet is a constructor change, not a router change.
 */

#ifndef HIMA_SERVE_ENGINE_H
#define HIMA_SERVE_ENGINE_H

#include <vector>

#include "dnc/dnc_config.h"

namespace hima {

/** Lifecycle state of one serving lane slot. */
enum class LaneState
{
    Free,     ///< unoccupied; admit() may bind a request here
    Active,   ///< stepping; owns a column in the active SoA prefix
    Draining, ///< episode finished; state readable, excluded from sweeps
};

/** A pool of lifecycle-managed DNC serving lanes. */
class LaneEngine
{
  public:
    virtual ~LaneEngine() = default;

    /**
     * One inference step for every *Active* lane. `inputs` holds
     * capacity() entries indexed by slot id (only Active slots are
     * read); `outputs` is resized to capacity() and Active slots'
     * entries overwritten.
     */
    virtual void stepInto(const std::vector<Vector> &inputs,
                          std::vector<Vector> &outputs) = 0;

    /**
     * Bind a Free slot and episode-reset it in place. Requires
     * freeLanes() > 0.
     *
     * @return the admitted slot id
     */
    virtual Index admit() = 0;

    /** Move an Active lane out of the stepping set, state readable. */
    virtual void markDraining(Index slot) = 0;

    /** Return an Active or Draining slot to the free pool. */
    virtual void release(Index slot) = 0;

    virtual LaneState laneState(Index slot) const = 0;
    virtual Index activeLanes() const = 0;
    virtual Index drainingLanes() const = 0;
    virtual Index freeLanes() const = 0;

    /** Total slots. */
    virtual Index capacity() const = 0;

    /** Reset every slot to the construction state (all lanes Active). */
    virtual void reset() = 0;

    virtual const DncConfig &config() const = 0;
};

} // namespace hima

#endif // HIMA_SERVE_ENGINE_H
