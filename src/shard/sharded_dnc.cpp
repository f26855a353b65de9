#include "shard/sharded_dnc.h"

#include <algorithm>

#include "obs/trace.h"

namespace hima {

// --------------------------------------------------------------------
// ShardedDnc
// --------------------------------------------------------------------

ShardedDnc::ShardedDnc(const DncConfig &config, std::uint64_t seed,
                       std::unique_ptr<TileMemory> memory)
    : config_(config), rng_(seed), controller_(config, rng_),
      memory_(std::move(memory)),
      lastReads_(config.readHeads, Vector(config.memoryWidth))
{
    HIMA_ASSERT(memory_ != nullptr, "ShardedDnc: null tile backend");
    const DncConfig &mem = memory_->globalConfig();
    HIMA_ASSERT(mem.memoryRows == config_.memoryRows &&
                    mem.memoryWidth == config_.memoryWidth &&
                    mem.readHeads == config_.readHeads &&
                    mem.fixedPoint == config_.fixedPoint,
                "ShardedDnc: tile backend shapes diverge from config");
}

void
ShardedDnc::stepInto(const Vector &input, Vector &out)
{
    const InterfaceVector &iface = controller_.stepInto(input, lastReads_);
    memory_->stepInterfaceInto(iface, readout_);
    for (Index head = 0; head < config_.readHeads; ++head)
        std::copy(readout_.readVectors[head].begin(),
                  readout_.readVectors[head].end(),
                  lastReads_[head].begin());
    controller_.outputInto(lastReads_, out);
}

Vector
ShardedDnc::step(const Vector &input)
{
    Vector out;
    stepInto(input, out);
    return out;
}

void
ShardedDnc::reset()
{
    controller_.reset();
    memory_->reset();
    for (auto &rv : lastReads_)
        rv.fill(0.0);
}

void
ShardedDnc::beginEpisode()
{
    controller_.reset();
    memory_->beginEpisode();
    for (auto &rv : lastReads_)
        rv.fill(0.0);
}

// --------------------------------------------------------------------
// PipelinedShardedLaneEngine
// --------------------------------------------------------------------

PipelinedShardedLaneEngine::PipelinedShardedLaneEngine(
    const DncConfig &config, std::uint64_t seed,
    std::shared_ptr<ShardLaneGroup> group, Index lanesPerBatch)
    : config_(config), group_(std::move(group)),
      lanesPerBatch_(lanesPerBatch != 0 ? lanesPerBatch
                                        : config.shardLanesPerBatch),
      ctrl_(config_, seed), readouts_(config_.batchSize)
{
    HIMA_ASSERT(group_ != nullptr, "null shard lane group");
    HIMA_ASSERT(group_->lanes() == config_.batchSize,
                "group hosts %zu lanes but batchSize is %zu",
                group_->lanes(), config_.batchSize);
    const DncConfig &mem = group_->globalConfig();
    HIMA_ASSERT(mem.memoryRows == config_.memoryRows &&
                    mem.memoryWidth == config_.memoryWidth &&
                    mem.readHeads == config_.readHeads &&
                    mem.fixedPoint == config_.fixedPoint,
                "shard fleet shapes diverge from config");
    batchLanes_.reserve(config_.batchSize);
    batchIfaces_.reserve(config_.batchSize);
    batchOuts_.reserve(config_.batchSize);
}

void
PipelinedShardedLaneEngine::sortBatch(Index c0, Index c1)
{
    // Compaction reorders columns, but a LaneStep frame needs strictly
    // increasing lane ids.
    batchLanes_.clear();
    for (Index c = c0; c < c1; ++c)
        batchLanes_.push_back(ctrl_.columnSlot(c));
    std::sort(batchLanes_.begin(), batchLanes_.end());
}

void
PipelinedShardedLaneEngine::finishBatch(Index c0, Index c1,
                                        std::vector<Vector> &outputs)
{
    sortBatch(c0, c1);
    batchOuts_.clear();
    for (Index slot : batchLanes_)
        batchOuts_.push_back(&readouts_[slot]);
    group_->gather(batchOuts_);
    for (Index c = c0; c < c1; ++c)
        ctrl_.storeReads(c, readouts_[ctrl_.columnSlot(c)].readVectors);
    ctrl_.outputInto(c0, c1, outputs);
}

void
PipelinedShardedLaneEngine::stepInto(const std::vector<Vector> &inputs,
                                     std::vector<Vector> &outputs)
{
    HIMA_ASSERT(inputs.size() == capacity(),
                "stepInto: need one input slot per lane");
    outputs.resize(capacity());
    const Index total = ctrl_.activeLanes();
    if (total == 0)
        return;
    const Index k =
        lanesPerBatch_ == 0 ? total : std::min(lanesPerBatch_, total);
    ctrl_.loadInputs(inputs);

    // The software pipeline: sweep and scatter batch b, then — while its
    // round trip is in flight — gather batch b-1 and emit its outputs.
    // Each lane's controller -> tiles -> merge -> output order is
    // untouched, so per-lane results cannot depend on the overlap.
    Index prev0 = 0;
    Index prev1 = 0;
    for (Index c0 = 0; c0 < total; c0 += k) {
        const Index c1 = std::min(c0 + k, total);
        {
            obs::TraceSpan span("shard.controller_compute", c1 - c0);
            ctrl_.forward(c0, c1);
            sortBatch(c0, c1);
            batchIfaces_.clear();
            for (Index slot : batchLanes_)
                batchIfaces_.push_back(
                    &ctrl_.decodeColumn(ctrl_.laneColumn(slot)));
        }
        group_->scatter(batchLanes_, batchIfaces_);
        if (prev1 > prev0)
            finishBatch(prev0, prev1, outputs);
        prev0 = c0;
        prev1 = c1;
    }
    finishBatch(prev0, prev1, outputs);
}

Index
PipelinedShardedLaneEngine::admit()
{
    const Index slot = ctrl_.admit();
    group_->admitLane(slot);
    return slot;
}

void
PipelinedShardedLaneEngine::reset()
{
    group_->resetAll();
    ctrl_.reset();
}

} // namespace hima
