#include "serve/batched_controller.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "dnc/interface.h"

namespace hima {

namespace {

/** Rows per pool task in the controller sweeps. */
constexpr Index kRowBlock = 32;

Index
blockCount(Index rows)
{
    return (rows + kRowBlock - 1) / kRowBlock;
}

} // namespace

BatchedController::BatchedController(const DncConfig &config,
                                     std::uint64_t seed)
    : config_(config), batch_(config.batchSize),
      feedWidth_(config.inputSize + config.readHeads * config.memoryWidth),
      readWidth_(config.readHeads * config.memoryWidth), rng_(seed),
      proto_(config_, rng_)
{
    const Index h = config_.controllerSize;
    const Index ifaceSize = config_.interfaceSize();

    slots_.resize(batch_);
    colToSlot_.resize(batch_);
    freeSlots_.reserve(batch_);

    feed_.resize(feedWidth_ * batch_);
    hidden_.resize(h * batch_);
    hiddenPrev_.resize(h * batch_);
    cell_.resize(h * batch_);
    for (auto &g : gatePre_)
        g.resize(h * batch_);
    rawIface_.resize(ifaceSize * batch_);
    readsFlat_.resize(readWidth_ * batch_);
    outSoA_.resize(config_.outputSize * batch_);
    rawLane_.assign(batch_, Vector(ifaceSize));
    ifaces_.resize(batch_);
    reset();

    lstmBlocks_ = blockCount(h);
    ifaceBlocks_ = blockCount(ifaceSize);
    // A [this] capture fits std::function's small-object buffer, so the
    // pooled sweeps allocate nothing per step.
    lstmTask_ = [this](Index blk) {
        const Index row0 = blk * kRowBlock;
        lstmRows(row0, std::min(row0 + kRowBlock, config_.controllerSize));
    };
    ifaceTask_ = [this](Index blk) {
        const Index row0 = blk * kRowBlock;
        ifaceRows(row0, std::min(row0 + kRowBlock, config_.interfaceSize()));
    };
}

// ---------------------------------------------------------------------
// Lane lifecycle. The compaction invariant — Active columns form the
// prefix [0, active_), Draining columns sit in [active_, occupied_) —
// is kept by swapping/moving single columns on each transition, so a
// transition costs O(H + R*W) strided copies and never allocates.
// ---------------------------------------------------------------------

void
BatchedController::swapColumns(Index a, Index b)
{
    if (a == b)
        return;
    Real *ph = hidden_.data();
    Real *pc = cell_.data();
    Real *pr = readsFlat_.data();
    for (Index j = 0; j < config_.controllerSize; ++j) {
        std::swap(ph[j * batch_ + a], ph[j * batch_ + b]);
        std::swap(pc[j * batch_ + a], pc[j * batch_ + b]);
    }
    for (Index k = 0; k < readWidth_; ++k)
        std::swap(pr[k * batch_ + a], pr[k * batch_ + b]);
    std::swap(colToSlot_[a], colToSlot_[b]);
    slots_[colToSlot_[a]].column = a;
    slots_[colToSlot_[b]].column = b;
}

void
BatchedController::moveColumn(Index from, Index to)
{
    if (from == to)
        return;
    Real *ph = hidden_.data();
    Real *pc = cell_.data();
    Real *pr = readsFlat_.data();
    for (Index j = 0; j < config_.controllerSize; ++j) {
        ph[j * batch_ + to] = ph[j * batch_ + from];
        pc[j * batch_ + to] = pc[j * batch_ + from];
    }
    for (Index k = 0; k < readWidth_; ++k)
        pr[k * batch_ + to] = pr[k * batch_ + from];
    colToSlot_[to] = colToSlot_[from];
    slots_[colToSlot_[to]].column = to;
}

void
BatchedController::zeroColumn(Index column)
{
    Real *ph = hidden_.data();
    Real *pc = cell_.data();
    Real *pr = readsFlat_.data();
    for (Index j = 0; j < config_.controllerSize; ++j) {
        ph[j * batch_ + column] = 0.0;
        pc[j * batch_ + column] = 0.0;
    }
    for (Index k = 0; k < readWidth_; ++k)
        pr[k * batch_ + column] = 0.0;
}

Index
BatchedController::admit()
{
    HIMA_ASSERT(!freeSlots_.empty(), "admit: no free lanes (capacity %zu)",
                batch_);

    // The new Active column goes at active_, which may currently back a
    // Draining lane — relocate that lane to the end of the occupied
    // region first.
    if (occupied_ > active_)
        moveColumn(active_, occupied_);

    const Index slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot] = LaneSlot{LaneState::Active, active_};
    colToSlot_[active_] = slot;
    zeroColumn(active_);
    ++active_;
    ++occupied_;
    return slot;
}

void
BatchedController::markDraining(Index slot)
{
    HIMA_ASSERT(slot < batch_, "markDraining: slot %zu >= %zu", slot, batch_);
    HIMA_ASSERT(slots_[slot].state == LaneState::Active,
                "markDraining: slot %zu is not Active", slot);
    // Swap the lane to the end of the active prefix; the column there
    // belongs to another Active lane whose state must survive the swap.
    swapColumns(slots_[slot].column, active_ - 1);
    slots_[slot].state = LaneState::Draining;
    --active_;
}

void
BatchedController::release(Index slot)
{
    HIMA_ASSERT(slot < batch_, "release: slot %zu >= %zu", slot, batch_);
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "release: slot %zu is already Free", slot);
    if (slots_[slot].state == LaneState::Active)
        markDraining(slot);
    // Swap the lane to the end of the occupied region and drop it.
    swapColumns(slots_[slot].column, occupied_ - 1);
    slots_[slot].state = LaneState::Free;
    --occupied_;
    freeSlots_.push_back(slot);
}

void
BatchedController::reset()
{
    hidden_.fill(0.0);
    cell_.fill(0.0);
    // readsFlat_ feeds the next step's controller input directly, so it
    // must drop the pre-reset reads too.
    readsFlat_.fill(0.0);
    for (Index b = 0; b < batch_; ++b) {
        slots_[b] = LaneSlot{LaneState::Active, b};
        colToSlot_[b] = b;
    }
    freeSlots_.clear();
    active_ = batch_;
    occupied_ = batch_;
}

// ---------------------------------------------------------------------
// The step.
// ---------------------------------------------------------------------

void
BatchedController::loadInputs(const std::vector<Vector> &inputs)
{
    HIMA_ASSERT(inputs.size() == batch_, "batch input arity %zu != %zu",
                inputs.size(), batch_);

    // inputs is slot-indexed; the active prefix walk routes each Active
    // slot's token to its current column. The reads block of the feed
    // has exactly readsFlat_'s layout (row r*W+c, column b), so copy
    // only the active prefix of each row: occupancy bounds the work.
    Real *pf = feed_.data();
    for (Index c = 0; c < active_; ++c) {
        const Index slot = colToSlot_[c];
        HIMA_ASSERT(inputs[slot].size() == config_.inputSize,
                    "slot %zu input width %zu != %zu", slot,
                    inputs[slot].size(), config_.inputSize);
        const Real *pi = inputs[slot].data();
        for (Index k = 0; k < config_.inputSize; ++k)
            pf[k * batch_ + c] = pi[k];
    }
    const Real *prf = readsFlat_.data();
    Real *pfr = pf + config_.inputSize * batch_;
    for (Index k = 0; k < readWidth_; ++k)
        std::copy(prf + k * batch_, prf + k * batch_ + active_,
                  pfr + k * batch_);

    // The recurrence reads the pre-step hidden state while the row
    // blocks write hidden_ in place.
    const Real *ph = hidden_.data();
    Real *php = hiddenPrev_.data();
    for (Index j = 0; j < config_.controllerSize; ++j)
        std::copy(ph + j * batch_, ph + j * batch_ + active_,
                  php + j * batch_);
}

void
BatchedController::forward(Index c0, Index c1, ThreadPool *pool)
{
    HIMA_ASSERT(c0 < c1 && c1 <= active_,
                "forward: columns [%zu, %zu) outside the active prefix %zu",
                c0, c1, active_);
    c0_ = c0;
    c1_ = c1;
    if (pool) {
        pool->parallelFor(lstmBlocks_, lstmTask_);
        pool->parallelFor(ifaceBlocks_, ifaceTask_);
    } else {
        for (Index blk = 0; blk < lstmBlocks_; ++blk)
            lstmTask_(blk);
        for (Index blk = 0; blk < ifaceBlocks_; ++blk)
            ifaceTask_(blk);
    }
}

void
BatchedController::lstmRows(Index row0, Index row1)
{
    const LstmCell &lstm = proto_.lstm();
    const Index stride = batch_;

    // Gate pre-activations: per lane the LstmCell::step chain (Wx x
    // complete, then + Wh h complete, then + bias).
    for (int g = 0; g < 4; ++g) {
        Real *gp = gatePre_[g].data();
        batchedMatVecRows(lstm.inputWeights(g), row0, row1, feed_.data(),
                          stride, c0_, c1_, gp, false);
        batchedMatVecRows(lstm.recurrentWeights(g), row0, row1,
                          hiddenPrev_.data(), stride, c0_, c1_, gp, true);
        const Real *bias = lstm.gateBias(g).data();
        for (Index j = row0; j < row1; ++j)
            for (Index b = c0_; b < c1_; ++b)
                gp[j * stride + b] += bias[j];
    }

    // Cell/hidden update, scalar-for-scalar LstmCell::step.
    const Real *gi = gatePre_[0].data();
    const Real *gf = gatePre_[1].data();
    const Real *gc = gatePre_[2].data();
    const Real *go = gatePre_[3].data();
    Real *pc = cell_.data();
    Real *ph = hidden_.data();
    for (Index j = row0; j < row1; ++j) {
        for (Index b = j * stride + c0_, end = j * stride + c1_; b < end;
             ++b) {
            const Real i = sigmoid(gi[b]);
            const Real f = sigmoid(gf[b]);
            const Real cand = std::tanh(gc[b]);
            const Real o = sigmoid(go[b]);
            pc[b] = f * pc[b] + i * cand;
            ph[b] = o * std::tanh(pc[b]);
        }
    }
}

void
BatchedController::ifaceRows(Index row0, Index row1)
{
    batchedMatVecRows(proto_.interfaceHead(), row0, row1, hidden_.data(),
                      batch_, c0_, c1_, rawIface_.data(), false);
}

const InterfaceVector &
BatchedController::decodeColumn(Index column)
{
    const Index slot = colToSlot_[column];
    laneGatherInto(rawIface_, batch_, column, config_.interfaceSize(),
                   rawLane_[slot]);
    decodeInterfaceInto(rawLane_[slot], config_, ifaces_[slot]);
    return ifaces_[slot];
}

void
BatchedController::storeReads(Index column, const std::vector<Vector> &reads)
{
    for (Index head = 0; head < config_.readHeads; ++head)
        laneScatterInto(reads[head], batch_, column, readsFlat_,
                        head * config_.memoryWidth);
}

void
BatchedController::outputInto(Index c0, Index c1,
                              std::vector<Vector> &outputs)
{
    // y = (W_y h) + (W_r reads), the Controller::outputInto chain: each
    // lane's two row sums are completed before the single +=.
    const Index rows = config_.outputSize;
    batchedMatVecRows(proto_.outputHead(), 0, rows, hidden_.data(), batch_,
                      c0, c1, outSoA_.data(), false);
    batchedMatVecRows(proto_.readHead(), 0, rows, readsFlat_.data(), batch_,
                      c0, c1, outSoA_.data(), true);
    for (Index c = c0; c < c1; ++c)
        laneGatherInto(outSoA_, batch_, c, rows, outputs[colToSlot_[c]]);
}

Vector
BatchedController::laneHidden(Index slot) const
{
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "laneHidden: slot %zu is Free", slot);
    Vector v;
    laneGatherInto(hidden_, batch_, slots_[slot].column,
                   config_.controllerSize, v);
    return v;
}

Vector
BatchedController::laneCell(Index slot) const
{
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "laneCell: slot %zu is Free", slot);
    Vector v;
    laneGatherInto(cell_, batch_, slots_[slot].column,
                   config_.controllerSize, v);
    return v;
}

} // namespace hima
