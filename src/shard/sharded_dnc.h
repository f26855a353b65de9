/**
 * @file
 * ShardedDnc: a full DNC whose controller runs locally and whose
 * external memory is a TileMemory — the in-process DncD or a lane of a
 * wire-connected ShardLaneGroup (ShardLaneGroup::laneMemory). This is
 * the Fig. 8 deployment shape:
 * the LSTM and projection heads live with the request front-end, the
 * memory tiles live wherever capacity is (threads, processes, hosts),
 * and only interface vectors and merged read vectors cross the
 * boundary.
 *
 * PipelinedShardedLaneEngine serves config.batchSize lanes of that
 * model behind the LaneEngine surface the Router consumes. Every lane
 * lives on one shared ShardLaneGroup fleet (shard/pipeline.h), and the
 * controller side is one BatchedController (serve/batched_controller.h):
 * a single shared weight set whose lane-interleaved activations are
 * swept per batch, so each weight row is streamed once per batch, not
 * once per lane. A step splits the active column prefix into contiguous
 * ranges of DncConfig::shardLanesPerBatch lanes; each range is one
 * LaneStep frame per worker (lane ids sorted ascending, as the wire
 * requires), and the engine runs a double-buffered window — batch B's
 * controller sweep runs while batch A's tile round trip is in flight,
 * and A's output head is one batched sweep once its reads arrive.
 * Lanes are independent and every sweep keeps one c-ascending
 * accumulator per lane, so each lane's controller -> tiles -> merge ->
 * output chain is bit-identical to a dedicated ShardedDnc run (proven
 * in tests/test_shard.cpp).
 */

#ifndef HIMA_SHARD_SHARDED_DNC_H
#define HIMA_SHARD_SHARDED_DNC_H

#include <memory>
#include <vector>

#include "dnc/dncd.h"
#include "serve/batched_controller.h"
#include "shard/pipeline.h"

namespace hima {

/** A DNC with a local controller and pluggable (possibly remote) tiles. */
class ShardedDnc
{
  public:
    /**
     * @param config shapes and feature flags (memoryRows = global N);
     *               controller weights are drawn exactly like
     *               Dnc(config, seed)'s
     * @param seed   weight-initialization seed
     * @param memory the tile backend; its globalConfig() must match
     */
    ShardedDnc(const DncConfig &config, std::uint64_t seed,
               std::unique_ptr<TileMemory> memory);

    /**
     * One inference step: controller -> interface -> broadcast to every
     * tile -> confidence merge -> output head.
     */
    Vector step(const Vector &input);

    /** Destination-passing step (out resized and overwritten). */
    void stepInto(const Vector &input, Vector &out);

    /** Reset controller and tile state (episode boundary). */
    void reset();

    /** Admission-path reset: new episode on recycled lane/tiles. */
    void beginEpisode();

    const DncConfig &config() const { return config_; }
    TileMemory &memory() { return *memory_; }
    const TileMemory &memory() const { return *memory_; }
    Controller &controller() { return controller_; }

    /** Merged read vectors from the previous step (width W each). */
    const std::vector<Vector> &lastReads() const { return lastReads_; }

  private:
    DncConfig config_;
    Rng rng_;
    Controller controller_;
    std::unique_ptr<TileMemory> memory_;
    std::vector<Vector> lastReads_;
    MemoryReadout readout_; ///< reused across step() calls
};

/**
 * The software-pipelined sharded serving engine: config.batchSize lanes
 * on one shared ShardLaneGroup fleet, driven by one BatchedController.
 * stepInto() splits the active column prefix into contiguous batches of
 * `lanesPerBatch` and overlaps batch b's controller sweep with batch
 * b-1's in-flight tile round trips (ShardLaneGroup's double-buffered
 * window); admit() maps to the wire's per-lane Admit control, so
 * recycling one lane never disturbs its fleet neighbours. Zero
 * steady-state allocations, lane churn included.
 */
class PipelinedShardedLaneEngine final : public LaneEngine
{
  public:
    /**
     * @param config shapes + serving knobs; batchSize = lane count and
     *               must equal group->lanes()
     * @param seed   controller weight seed (same draw as
     *               ShardedDnc(config, seed), shared by every lane)
     * @param group  the shared fleet; the engine co-owns it so worker
     *               harness structs can hold the other reference
     * @param lanesPerBatch lanes per worker round trip; 0 defers to
     *               config.shardLanesPerBatch (whose own 0 means "all
     *               active lanes in one frame" — maximal syscall
     *               amortization, no compute/wire overlap)
     */
    PipelinedShardedLaneEngine(const DncConfig &config, std::uint64_t seed,
                               std::shared_ptr<ShardLaneGroup> group,
                               Index lanesPerBatch = 0);

    void stepInto(const std::vector<Vector> &inputs,
                  std::vector<Vector> &outputs) override;
    Index admit() override;
    void markDraining(Index slot) override { ctrl_.markDraining(slot); }
    void release(Index slot) override { ctrl_.release(slot); }
    LaneState laneState(Index slot) const override
    {
        return ctrl_.laneState(slot);
    }
    Index activeLanes() const override { return ctrl_.activeLanes(); }
    Index drainingLanes() const override { return ctrl_.drainingLanes(); }
    Index freeLanes() const override { return ctrl_.freeLanes(); }
    Index capacity() const override { return ctrl_.capacity(); }
    void reset() override;
    const DncConfig &config() const override { return config_; }

    ShardLaneGroup &group() { return *group_; }
    const BatchedController &controller() const { return ctrl_; }
    Index lanesPerBatch() const { return lanesPerBatch_; }

  private:
    /** batchLanes_ = the slots of columns [c0, c1), ascending. */
    void sortBatch(Index c0, Index c1);

    /** Gather the batch of columns [c0, c1) and emit its outputs. */
    void finishBatch(Index c0, Index c1, std::vector<Vector> &outputs);

    DncConfig config_;
    std::shared_ptr<ShardLaneGroup> group_;
    Index lanesPerBatch_; ///< 0 = all active lanes in one frame
    BatchedController ctrl_;
    std::vector<MemoryReadout> readouts_; ///< per slot

    // Reused step scratch.
    std::vector<Index> batchLanes_;
    std::vector<const InterfaceVector *> batchIfaces_;
    std::vector<MemoryReadout *> batchOuts_;
};

} // namespace hima

#endif // HIMA_SHARD_SHARDED_DNC_H
