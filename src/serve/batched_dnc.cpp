#include "serve/batched_dnc.h"

namespace hima {

BatchedDnc::BatchedDnc(const DncConfig &config, std::uint64_t seed)
    : config_(config), ctrl_(config_, seed)
{
    config_.validate();

    const Index batch = config_.batchSize;
    const Index n = config_.memoryRows;
    const Index w = config_.memoryWidth;

    lanes_.reserve(batch);
    for (Index b = 0; b < batch; ++b)
        lanes_.emplace_back(config_);

    // Pre-size every per-lane buffer so the first step is already in
    // steady state: MemoryUnit::stepInto's resizes become no-ops.
    readouts_.resize(batch);
    for (MemoryReadout &ro : readouts_) {
        ro.readVectors.assign(config_.readHeads, Vector(w));
        ro.readWeightings.assign(config_.readHeads, Vector(n));
        ro.writeWeighting.resize(n);
    }

    if (config_.numThreads > 1)
        pool_ = std::make_unique<ThreadPool>(config_.numThreads);
    laneTask_ = [this](Index column) { columnStep(column); };
}

Index
BatchedDnc::admit()
{
    // In-place episode reset: the admitted lane must be bit-identical to
    // a freshly constructed Dnc. Nothing here reallocates.
    const Index slot = ctrl_.admit();
    lanes_[slot].reset();
    for (Vector &rv : readouts_[slot].readVectors)
        rv.fill(0.0);
    for (Vector &rw : readouts_[slot].readWeightings)
        rw.fill(0.0);
    readouts_[slot].writeWeighting.fill(0.0);
    return slot;
}

void
BatchedDnc::columnStep(Index column)
{
    // Decode this lane's interface emission and run its memory tile —
    // the unchanged allocation-free MemoryUnit hot path — then store
    // the reads for the output head and next step's feed.
    const Index slot = ctrl_.columnSlot(column);
    lanes_[slot].stepInto(ctrl_.decodeColumn(column), readouts_[slot]);
    ctrl_.storeReads(column, readouts_[slot].readVectors);
}

void
BatchedDnc::stepInto(const std::vector<Vector> &inputs,
                     std::vector<Vector> &outputs)
{
    HIMA_ASSERT(inputs.size() == capacity(), "batch input arity %zu != %zu",
                inputs.size(), capacity());

    outputs.resize(capacity());
    const Index active = ctrl_.activeLanes();
    if (active == 0)
        return;

    ctrl_.loadInputs(inputs);
    ctrl_.forward(0, active, pool_.get());
    if (pool_) {
        pool_->parallelFor(active, laneTask_);
    } else {
        for (Index c = 0; c < active; ++c)
            columnStep(c);
    }
    ctrl_.outputInto(0, active, outputs);
}

std::vector<Vector>
BatchedDnc::step(const std::vector<Vector> &inputs)
{
    std::vector<Vector> outputs;
    stepInto(inputs, outputs);
    return outputs;
}

void
BatchedDnc::reset()
{
    ctrl_.reset();
    for (MemoryUnit &lane : lanes_)
        lane.reset();
    for (MemoryReadout &ro : readouts_)
        for (Vector &rv : ro.readVectors)
            rv.fill(0.0);
}

} // namespace hima
