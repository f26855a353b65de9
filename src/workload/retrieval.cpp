#include "workload/retrieval.h"

namespace hima {

InterfaceScripter::InterfaceScripter(const DncConfig &config,
                                     const TokenCodebook &keys,
                                     const TokenCodebook &values)
    : config_(config), keys_(keys), values_(values)
{
    HIMA_ASSERT(config_.memoryWidth % 2 == 0,
                "retrieval protocol needs an even W");
    HIMA_ASSERT(keys_.width() == config_.memoryWidth / 2 &&
                    values_.width() == config_.memoryWidth / 2,
                "codebook width must be W/2");
}

InterfaceVector
InterfaceScripter::blankInterface() const
{
    const Index w = config_.memoryWidth;
    const Index r = config_.readHeads;

    InterfaceVector iface;
    iface.readKeys.assign(r, Vector(w));
    iface.readStrengths.assign(r, 1.0);
    iface.writeKey = Vector(w);
    iface.writeStrength = 1.0;
    iface.eraseVector = Vector(w, 0.0);
    iface.writeVector = Vector(w);
    iface.freeGates.assign(r, 0.0);
    iface.allocationGate = 0.0;
    iface.writeGate = 0.0;
    iface.readModes.assign(r, ReadMode{0.0, 1.0, 0.0});
    return iface;
}

InterfaceVector
InterfaceScripter::writeInterface(Index keyToken, Index valueToken) const
{
    const Index half = config_.memoryWidth / 2;
    InterfaceVector iface = blankInterface();

    const Vector &key = keys_.encode(keyToken);
    const Vector &value = values_.encode(valueToken);
    for (Index i = 0; i < half; ++i) {
        iface.writeVector[i] = key[i];
        iface.writeVector[half + i] = value[i];
    }
    // Allocation-gated write into the least-used slot, erasing the slot
    // fully first: this drives usage, sort and allocation every write.
    iface.allocationGate = 1.0;
    iface.writeGate = 1.0;
    iface.eraseVector = Vector(config_.memoryWidth, 1.0);
    return iface;
}

InterfaceVector
InterfaceScripter::queryInterface(Index keyToken) const
{
    const Index half = config_.memoryWidth / 2;
    InterfaceVector iface = blankInterface();

    const Vector &key = keys_.encode(keyToken);
    for (Index head = 0; head < config_.readHeads; ++head) {
        for (Index i = 0; i < half; ++i)
            iface.readKeys[head][i] = key[i];
        iface.readStrengths[head] = 20.0; // sharp content lookup
        iface.readModes[head] = ReadMode{0.0, 1.0, 0.0};
    }
    return iface;
}

InterfaceVector
InterfaceScripter::temporalInterface() const
{
    InterfaceVector iface = blankInterface();
    for (Index head = 0; head < config_.readHeads; ++head)
        iface.readModes[head] = ReadMode{0.0, 0.0, 1.0}; // forward mode
    return iface;
}

Index
InterfaceScripter::decodeValue(const Vector &readVector) const
{
    const Index half = config_.memoryWidth / 2;
    HIMA_ASSERT(readVector.size() == config_.memoryWidth, "read width");
    Vector value(half);
    for (Index i = 0; i < half; ++i)
        value[i] = readVector[half + i];
    return values_.decode(value);
}

Real
InterfaceScripter::valueScore(const Vector &readVector, Index token) const
{
    const Index half = config_.memoryWidth / 2;
    Vector value(half);
    for (Index i = 0; i < half; ++i)
        value[i] = readVector[half + i];
    return values_.score(value, token);
}

namespace {

/** Shared scoring loop once a step's readout is available. */
void
scoreStep(const InterfaceScripter &scripter, const EpisodeStep &step,
          const MemoryReadout &readout, EpisodeResult &result)
{
    if (step.kind != StepKind::Query &&
        step.kind != StepKind::TemporalQuery)
        return;
    ++result.scored;
    const Vector &read = readout.readVectors[0];
    if (scripter.decodeValue(read) == step.valueToken)
        ++result.correct;
    result.meanScore += scripter.valueScore(read, step.valueToken);
}

void
finalizeResult(EpisodeResult &result)
{
    if (result.scored)
        result.meanScore /= static_cast<Real>(result.scored);
}

InterfaceVector
buildInterface(const InterfaceScripter &scripter, const EpisodeStep &step)
{
    switch (step.kind) {
      case StepKind::Write:
        return scripter.writeInterface(step.keyToken, step.valueToken);
      case StepKind::Query:
      case StepKind::TemporalAnchor:
        return scripter.queryInterface(step.keyToken);
      case StepKind::TemporalQuery:
        return scripter.temporalInterface();
      default:
        HIMA_PANIC("bad step kind %d", static_cast<int>(step.kind));
    }
}

} // namespace

EpisodeResult
runEpisode(Dnc &model, const InterfaceScripter &scripter,
           const Episode &episode)
{
    model.reset();
    EpisodeResult result;
    for (const EpisodeStep &step : episode.steps) {
        const MemoryReadout readout =
            model.stepInterface(buildInterface(scripter, step));
        scoreStep(scripter, step, readout, result);
    }
    finalizeResult(result);
    return result;
}

EpisodeResult
runEpisodeDistributed(TileMemory &model, const InterfaceScripter &scripter,
                      const Episode &episode)
{
    model.reset();
    const Index tiles = model.tiles();
    EpisodeResult result;
    for (const EpisodeStep &step : episode.steps) {
        // Learned sharding: exactly one tile opens its write gate.
        const Index writeTile = step.kind == StepKind::Write
                                    ? step.keyToken % tiles
                                    : kAllTiles;
        const MemoryReadout readout =
            model.stepInterface(buildInterface(scripter, step), writeTile);
        scoreStep(scripter, step, readout, result);
    }
    finalizeResult(result);
    return result;
}

} // namespace hima
