/**
 * @file
 * The shard coordinator: the client side of multi-process DNC-D over
 * the lane-batched wire protocol (wire.h).
 *
 * A synchronous coordinator — one lane, one full round trip per step —
 * is a one-lane group stepped through laneMemory() or stepLaneInto().
 * At high tile counts the socket latency of that round trip is the
 * throughput ceiling (see the in_process-vs-tcp gap in
 * BENCH_shard.json); serving buys the gap back with the two overlap
 * tricks throughput-oriented serving systems use:
 *
 *   - lane batching: one LaneStep frame per worker carries k lanes'
 *     broadcast interfaces, so syscalls, wakeups and framing amortize
 *     k-fold — and because the frame is lane-addressed (not
 *     tile-addressed), the *same* encoded bytes go to every worker:
 *     one encode per batch, not per channel;
 *
 *   - a double-buffered step window: up to kMaxInFlight batches may be
 *     outstanding per channel (scatter B before gathering A), so the
 *     caller can run lane set B's controller compute while lane set
 *     A's tile round trip is still in flight.
 *
 * Lanes are independent tile sets on the workers, so any interleaving
 * of batches is bit-identical per lane to the synchronous schedule —
 * each lane still sees the strict controller -> tiles -> merge order.
 * Per-lane state here is a ConfidenceGate, merged through the same
 * mergeTileReadouts the in-process DncD runs, so every lane must match
 * DncD bit for bit, proven in tests/test_shard.cpp across transports x
 * tiles x threads x datapath (learned write sharding included: a
 * scatter may name one write tile, and every other tile steps with its
 * write gate closed).
 *
 * laneMemory() exposes one lane behind the TileMemory surface, so a
 * plain ShardedDnc (or the golden harness) can drive a single lane of
 * a shared fleet synchronously; PipelinedShardedLaneEngine
 * (sharded_dnc.h) drives all lanes with the overlapped schedule behind
 * the LaneEngine surface the Router consumes.
 *
 * Wire v3 fault tolerance: setRespawner() plus a nonzero
 * DncConfig::shardCheckpointIntervalSteps arm periodic
 * checkpoint pulls (taken at a gather that empties the in-flight
 * window) and a replay log of every frame since the last pull. Because
 * LaneStep frames are lane-addressed, the *same* bytes go to every
 * worker, so the log stores one buffer per entry, not per channel. On
 * a worker loss mid-gather the group respawns, Rejoins, Restores the
 * worker's lane-major checkpoint slice, replays the log, then resends
 * the up-to-kMaxInFlight outstanding batch frames oldest-first — the
 * double-buffered window drains deterministically and every later step
 * is bit-identical to an undisturbed run. migrateWorker()/rescale()
 * reuse the same frames to move tile slices between live workers or
 * re-deal them over a grown fleet with zero dropped lanes.
 */

#ifndef HIMA_SHARD_PIPELINE_H
#define HIMA_SHARD_PIPELINE_H

#include <memory>
#include <vector>

#include "dnc/dncd.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace hima {

/** Multi-lane scatter/gather coordinator with an in-flight window. */
class ShardLaneGroup
{
  public:
    /** Deepest scatter window (double buffer: compute overlaps wire). */
    static constexpr Index kMaxInFlight = 2;

    /**
     * Connect and handshake: tiles are dealt contiguously over the
     * channels as evenly as possible (channel k hosts tiles/channels
     * +- 1), every worker hosting `lanes` independent tile sets of its
     * range; shapes and datapath are validated before any step traffic.
     *
     * @param config   global DNC shapes (memoryRows = global N)
     * @param tiles    tile count Nt per lane; must divide memoryRows
     * @param lanes    serving lanes hosted by the fleet
     * @param policy   read-vector merge policy
     * @param channels one connected channel per worker (1..tiles)
     * @param wantWeightings ship per-tile read/write weightings back so
     *        readouts carry the concatenated global view (DncD parity —
     *        the golden harness needs it); serving paths leave it off to
     *        keep reply frames at R*W + R reals per tile
     */
    ShardLaneGroup(const DncConfig &config, Index tiles, Index lanes,
                   MergePolicy policy,
                   std::vector<std::unique_ptr<Channel>> channels,
                   bool wantWeightings = false);

    /** Sends Shutdown to every worker. */
    ~ShardLaneGroup();

    ShardLaneGroup(const ShardLaneGroup &) = delete;
    ShardLaneGroup &operator=(const ShardLaneGroup &) = delete;

    // --- pipelined batch surface ---------------------------------------

    /**
     * Begin one batch step: lane ids (strictly increasing) with one
     * broadcast interface each. Encodes a single LaneStep frame, queues
     * it on every channel and flushes — then returns immediately; the
     * batch is outstanding until the matching gather(). At most
     * kMaxInFlight batches may be outstanding, and a lane must not
     * appear in two outstanding batches (its tiles would race).
     * `writeTile` (learned write sharding, see TileMemory) applies to
     * every lane of the batch.
     */
    void scatter(const std::vector<Index> &lanes,
                 const std::vector<const InterfaceVector *> &ifaces,
                 Index writeTile = kAllTiles);

    /**
     * Gather the *oldest* outstanding batch: receives one reply frame
     * per channel, verifies the sequence/lane correlation, applies each
     * lane's confidence merge and writes lane j's merged readout into
     * *outs[j] (indexed like the scatter's lane list). Any protocol
     * violation, worker error, channel close or recv-timeout expiry is
     * fatal — a serving stack must never continue on a diverged shard.
     */
    void gather(const std::vector<MemoryReadout *> &outs);

    /** Outstanding scatters (0..kMaxInFlight). */
    Index inFlight() const { return pendingCount_; }

    // --- synchronous per-lane surface ----------------------------------

    /** One lane's step as a single scatter+gather round trip. */
    void stepLaneInto(Index lane, const InterfaceVector &iface,
                      MemoryReadout &out, Index writeTile = kAllTiles);

    /**
     * One lane of `group` behind the TileMemory surface: the
     * synchronous coordinator. The view co-owns the group (so a
     * ShardedDnc can own its wire backend) and must not be stepped
     * while batches are in flight.
     */
    static std::unique_ptr<TileMemory>
    laneMemory(std::shared_ptr<ShardLaneGroup> group, Index lane);

    /** Admit control for one lane: resets its tiles and gate. */
    void admitLane(Index lane);

    /** Episode-reset one lane (no admit accounting). */
    void resetLane(Index lane);

    /** Episode-reset every lane. */
    void resetAll();

    // --- inspection -----------------------------------------------------

    const std::vector<std::vector<Real>> &
    laneAlphas(Index lane) const
    {
        return gates_[lane].alphas();
    }

    Index tiles() const { return tiles_; }
    Index lanes() const { return gates_.size(); }
    const DncConfig &globalConfig() const { return globalConfig_; }
    const DncConfig &shardConfig() const { return shardConfig_; }
    Index channelCount() const { return channels_.size(); }
    const Channel &channel(Index k) const { return *channels_[k]; }

    /** Lane-steps completed (gathered) since construction. */
    std::uint64_t laneSteps() const { return laneSteps_; }

    // --- fault tolerance (wire v3) -------------------------------------

    /**
     * Install the replacement-channel factory. Recovery is armed when a
     * respawner is set AND shardCheckpointIntervalSteps > 0 AND
     * failHard is off; otherwise a worker loss stays fatal.
     */
    void setRespawner(ShardRespawnFn respawner)
    {
        respawner_ = std::move(respawner);
    }

    /** Keep every worker loss fatal even when recovery is armed. */
    void setFailHard(bool on) { failHard_ = on; }

    /**
     * Pull a checkpoint of every worker's lane-major tile state right
     * now. Requires an empty in-flight window.
     */
    void checkpointNow();

    /**
     * Live migration: move worker k's tile slice (all lanes) onto
     * `replacement` and shut the old worker down. Quiesces via a fresh
     * checkpoint pull; requires an empty in-flight window. Works
     * without a respawner.
     */
    void migrateWorker(Index k, std::unique_ptr<Channel> replacement);

    /**
     * Re-deal all tiles over a new fleet mid-run (e.g. 8 -> 16
     * workers) with zero dropped lanes: checkpoint, retire the old
     * fleet, Rejoin + Restore the new one. Per-lane gates live
     * coordinator-side, so every lane resumes bit-identically.
     */
    void rescale(std::vector<std::unique_ptr<Channel>> channels);

    /** Worker losses recovered (respawn + restore + replay). */
    std::uint64_t recoveries() const { return recoveries_; }

    /** Checkpoint pulls completed (periodic + forced). */
    std::uint64_t checkpointsTaken() const { return checkpointsTaken_; }

    // --- fleet telemetry scrape (wire v5) -------------------------------

    /**
     * Pull every worker's telemetry registry (StatsPull/StatsReport)
     * into `perWorker` (one snapshot per worker, channel order) and
     * merge them — plus this process's registry and the group's wire
     * counters ("shard.wire.*") — into `aggregate`. Requires an empty
     * in-flight window, like every control-plane exchange here.
     */
    void scrapeWorkers(std::vector<obs::Snapshot> &perWorker,
                       obs::Snapshot &aggregate);

  private:
    /** Handshake body for worker k: shapes plus its tile slice. */
    WireConfig assignment(Index k) const;

    void sendControl(ControlKind kind, std::uint32_t lane);

    /** Deal tiles contiguously/evenly over channels_. */
    void dealTiles();

    bool recoveryArmed() const
    {
        return static_cast<bool>(respawner_) && !failHard_ &&
               globalConfig_.shardCheckpointIntervalSteps > 0;
    }

    /** Respawn + Rejoin + Restore + replay; fatal when not armed. */
    void recoverWorker(Index k, const char *what, std::uint64_t seq);

    /** Rejoin handshake for worker k's assignment on channels_[k]. */
    void rejoinWorker(Index k, const char *who);

    /** Restore worker k's checkpoint slice; await the ControlAck. */
    void restoreWorker(Index k, const char *who);

    /** Append one shared frame to the replay log. */
    void commitLog(const std::vector<std::uint8_t> &bytes);

    /**
     * Receive channel k's next frame as a view (frameData_/frameSize_).
     * Zero-copy on shm; elsewhere the bytes land in frame_ and the view
     * points at it.
     */
    bool recvFrom(Index k);

    void pullCheckpoints();

    /** Pointer slice of checkpoints_ covering worker k (lane-major). */
    MemoryTileState *const *snapshotSlice(Index k);

    DncConfig globalConfig_;
    DncConfig shardConfig_;
    Index tiles_;
    MergePolicy policy_;
    bool wantWeightings_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<Index> firstTile_; ///< per channel
    std::vector<Index> tileCount_; ///< per channel

    std::vector<ConfidenceGate> gates_; ///< one per lane
    std::uint64_t seq_ = 0;
    std::uint64_t controlSeq_ = 0;
    std::uint64_t laneSteps_ = 0;

    /** One outstanding scatter (reused; steady state allocates nothing). */
    struct Pending
    {
        std::uint64_t seq = 0;
        std::vector<Index> lanes;
        /** The encoded LaneStep frame (shared by every channel), kept
         *  while outstanding so a recovery can resend the window. Only
         *  filled when recovery is armed. */
        std::vector<std::uint8_t> bytes;
    };
    Pending pending_[kMaxInFlight];
    Index pendingHead_ = 0;
    Index pendingCount_ = 0;

    // Reused per-step scratch. frame_ is recv scratch; frameData_/
    // frameSize_ view the last received frame (a borrowed shm slot or
    // frame_ itself).
    WireWriter writer_;
    std::vector<std::uint8_t> frame_;
    const std::uint8_t *frameData_ = nullptr;
    std::size_t frameSize_ = 0;
    std::vector<LaneStepEntry> entryScratch_;
    std::vector<LaneStepReplyMsg> replies_;        ///< per channel
    std::vector<const MemoryReadout *> localPtrs_; ///< per global tile
    std::vector<Real> scoreScratch_; ///< scoredHeads x tiles, row-major
    std::vector<Index> laneScratch_; ///< stepLaneInto's one-lane batch
    std::vector<const InterfaceVector *> ifaceScratch_;
    std::vector<MemoryReadout *> outScratch_;

    // Fault tolerance: checkpoint store + replay log (wire v3). Frames
    // are identical on every channel, so log entries and the control
    // resend scratch hold one buffer each; all rings reuse capacity so
    // a steady state that includes checkpointing allocates nothing.
    ShardRespawnFn respawner_;
    bool failHard_ = false;
    std::uint64_t recoveries_ = 0;
    std::uint64_t checkpointsTaken_ = 0;
    std::uint64_t checkpointSeq_ = 0;
    std::uint64_t statsSeq_ = 0; ///< scrape round ids (StatsPull seq)
    std::uint64_t laneStepsSinceCheckpoint_ = 0;
    bool checkpointValid_ = false; ///< checkpoints_ holds a real pull
    std::vector<MemoryTileState> checkpoints_; ///< lane-major, lanes x Nt
    std::vector<MemoryTileState *> snapshotPtrs_; ///< slice scratch
    std::vector<std::uint8_t> resendScratch_; ///< in-flight control/pull
    std::vector<std::vector<std::uint8_t>> log_; ///< ring, shared frames
    std::size_t logCount_ = 0;
};

} // namespace hima

#endif // HIMA_SHARD_PIPELINE_H
