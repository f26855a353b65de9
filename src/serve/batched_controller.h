/**
 * @file
 * BatchedController: the controller half of both serving engines — one
 * shared LSTM + projection-head weight set stepped over many lanes at
 * once.
 *
 * Every lane of a serving deployment runs the same trained model, so
 * the controller weights are shared and only the recurrent state is per
 * lane. A sequential loop re-streams every weight row from cache/DRAM
 * once per lane per step; this class keeps the activations
 * lane-interleaved (struct-of-arrays: element j of the lane in column b
 * lives at buf[j * capacity + b]) and sweeps each weight row across a
 * range of columns at once, cutting per-lane weight traffic by the
 * batch occupancy. BatchedDnc (serve/batched_dnc.h) pairs it with
 * per-lane MemoryUnit tiles; PipelinedShardedLaneEngine
 * (shard/sharded_dnc.h) pairs it with a remote tile fleet and sweeps
 * one contiguous column range per worker round trip.
 *
 * Lane lifecycle. Each of the capacity() slots is Free, Active or
 * Draining:
 *
 *     Free ──admit()──▶ Active ──markDraining()──▶ Draining
 *       ▲                  │                          │
 *       └────────────── release() ◀───────────────────┘
 *
 * Slot ids are stable handles; internally the occupied SoA *columns*
 * stay compacted — Active lanes in [0, activeLanes()), Draining lanes
 * right after — so every sweep runs over a dense column range and a
 * partially occupied batch pays no padding flops. A transition moves at
 * most one column of persistent state (hidden, cell, previous reads),
 * so column order is generally *not* slot order. admit() zeroes the new
 * column in place (a fresh controller), nothing is reallocated.
 *
 * Bit-exactness: every sweep keeps one c-ascending accumulator per lane
 * — per column exactly the LstmCell::step / Controller chain (matVecInto,
 * then matVecAccumulate, then the bias / the single +=) — so batching,
 * the column range, the row blocking and the thread count never change
 * per-lane arithmetic, only operand reuse. Row blocks own their outputs
 * exclusively, so pooled sweeps are bit-identical too. All buffers are
 * preallocated at construction: steady-state steps and lifecycle
 * transitions allocate nothing.
 */

#ifndef HIMA_SERVE_BATCHED_CONTROLLER_H
#define HIMA_SERVE_BATCHED_CONTROLLER_H

#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "dnc/controller.h"
#include "serve/engine.h"

namespace hima {

/**
 * One serving lane slot: lifecycle state plus the SoA column currently
 * backing it. The slot id (its index) is the stable external handle;
 * `column` moves as the active prefix compacts.
 */
struct LaneSlot
{
    LaneState state = LaneState::Active;
    Index column = 0;
};

/** config.batchSize controller lanes over one shared weight set. */
class BatchedController
{
  public:
    /**
     * @param config shapes; config.batchSize slots are created
     * @param seed   weight seed — the same draw as Controller(config,
     *               Rng(seed)), i.e. as Dnc(config, seed)'s controller
     *
     * All slots start Active (slot i in column i).
     */
    BatchedController(const DncConfig &config, std::uint64_t seed);

    // --- lane lifecycle -------------------------------------------------

    /** Bind a Free slot with zeroed state; requires freeLanes() > 0. */
    Index admit();

    /** Move an Active lane out of the stepping prefix (state kept). */
    void markDraining(Index slot);

    /** Return an Active or Draining slot to the free pool. */
    void release(Index slot);

    /** Every slot Active in its home column, all state zeroed. */
    void reset();

    LaneState laneState(Index slot) const { return slots_[slot].state; }
    Index activeLanes() const { return active_; }
    Index drainingLanes() const { return occupied_ - active_; }
    Index freeLanes() const { return batch_ - occupied_; }
    Index capacity() const { return batch_; }

    /** The slot an occupied column currently backs. */
    Index columnSlot(Index column) const { return colToSlot_[column]; }

    /** The column currently backing an occupied slot. */
    Index laneColumn(Index slot) const { return slots_[slot].column; }

    // --- one step, in phase order ---------------------------------------

    /**
     * Load every Active lane's feed [input; previous reads] and snapshot
     * its hidden state (the recurrence input). `inputs` is slot-indexed;
     * only Active slots are read.
     */
    void loadInputs(const std::vector<Vector> &inputs);

    /**
     * LSTM recurrence plus interface-head projection over Active columns
     * [c0, c1). With a pool, row blocks are spread across its threads.
     */
    void forward(Index c0, Index c1, ThreadPool *pool = nullptr);

    /**
     * Decode one column's interface emission into its slot's interface
     * (valid until that slot's next decode). Columns are independent:
     * distinct columns may be decoded concurrently.
     */
    const InterfaceVector &decodeColumn(Index column);

    /** Store one column's read vectors: the output-head operand and the
     *  next step's feed. Concurrent calls on distinct columns are safe. */
    void storeReads(Index column, const std::vector<Vector> &reads);

    /**
     * Output head y = W_y h + W_r [reads] over columns [c0, c1); each
     * column's result lands in outputs[its slot] (outputs must hold
     * capacity() entries).
     */
    void outputInto(Index c0, Index c1, std::vector<Vector> &outputs);

    // --- inspection -----------------------------------------------------

    /** Slot s's LSTM hidden state, gathered out of the SoA tile. */
    Vector laneHidden(Index slot) const;

    /** Slot s's LSTM cell state, gathered out of the SoA tile. */
    Vector laneCell(Index slot) const;

  private:
    /** LSTM rows [row0, row1) over columns [c0_, c1_). */
    void lstmRows(Index row0, Index row1);

    /** Interface-head rows [row0, row1) over columns [c0_, c1_). */
    void ifaceRows(Index row0, Index row1);

    // Column compaction helpers (persistent state: h, c, reads).
    void swapColumns(Index a, Index b);
    void moveColumn(Index from, Index to);
    void zeroColumn(Index column);

    DncConfig config_;
    Index batch_;      ///< slot capacity (== config.batchSize)
    Index feedWidth_;  ///< inputSize + R * W
    Index readWidth_;  ///< R * W
    Rng rng_;          ///< weight-init stream, identical to Dnc's
    Controller proto_; ///< shared weights (its own h/c state is unused)

    // Columns [0, active_) are Active, [active_, occupied_) Draining,
    // the rest stale; colToSlot_ maps an occupied column to its slot.
    std::vector<LaneSlot> slots_;
    std::vector<Index> colToSlot_;
    std::vector<Index> freeSlots_; ///< stack of Free slot ids (reserved)
    Index active_ = 0;
    Index occupied_ = 0;

    // SoA activations. hidden_/cell_/readsFlat_ persist across steps
    // (and move with their lane on compaction); the rest are per step.
    Vector feed_;       ///< [input; prev reads], feedWidth x B
    Vector hidden_;     ///< LSTM hidden state, H x B
    Vector hiddenPrev_; ///< pre-step hidden snapshot (recurrence input)
    Vector cell_;       ///< LSTM cell state, H x B
    Vector gatePre_[4]; ///< gate pre-activations, H x B each
    Vector rawIface_;   ///< interface emission, interfaceSize x B
    Vector readsFlat_;  ///< concatenated read vectors, (R*W) x B
    Vector outSoA_;     ///< model outputs, outputSize x B

    std::vector<Vector> rawLane_;         ///< per-slot decode gather
    std::vector<InterfaceVector> ifaces_; ///< per-slot decoded interfaces

    // Pooled sweeps: forward() publishes its column range, then the
    // prebuilt row-block tasks (no per-step allocation) read it.
    Index c0_ = 0;
    Index c1_ = 0;
    Index lstmBlocks_;
    Index ifaceBlocks_;
    std::function<void(Index)> lstmTask_;
    std::function<void(Index)> ifaceTask_;
};

} // namespace hima

#endif // HIMA_SERVE_BATCHED_CONTROLLER_H
