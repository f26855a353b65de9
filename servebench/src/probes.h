/**
 * @file
 * Outside-in instrumentation for the serving benchmark. Nothing here
 * reaches into the library: every probe is a forwarding wrapper around
 * a public interface (LaneEngine, Channel, the respawner hook) that
 * records a span around each call into the layer below, or a counter
 * the library already exposes.
 *
 * All probed calls happen on the driver thread (the Router drives the
 * engine, the engine's lane group drives its channels and calls the
 * respawner), so the span log needs no locking: spans nest strictly
 * and each one records the span that was open when it started.
 */

#ifndef SERVEBENCH_PROBES_H
#define SERVEBENCH_PROBES_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "shard/transport.h"

namespace servebench {

using hima::Index;

/** Monotonic wall clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Heap allocations made by any thread since process start. */
std::uint64_t allocCount();

/**
 * Sample this process's resident memory, shared-memory mappings
 * excluded: how many transport ring slots a run touches depends on
 * frame timing, the rest of the footprint does not.
 */
void noteResident();

/** Largest noteResident() sample so far, in MiB. */
double peakResidentMb();

/** What a span covers; the layer it belongs to follows from the kind. */
enum class SpanKind : std::uint8_t
{
    RouterStep,    ///< Router::step()
    EngineStep,    ///< LaneEngine::stepInto()
    EngineAdmit,   ///< LaneEngine::admit()
    EngineDrain,   ///< LaneEngine::markDraining()
    EngineRelease, ///< LaneEngine::release()
    TransportSend, ///< Channel send/queue/flush/beginFrame/endFrame
    TransportRecv, ///< Channel recvFrame/recvFrameView (the wait)
    Respawn,       ///< the installed respawner (worker replacement)
    DriverSubmit,  ///< Router::submit() of due requests
    DriverWait,    ///< idle sleep until the next scheduled arrival
    DriverRecord,  ///< harvesting results and per-step bookkeeping
    Count,
};

/** Span name as written to the Chrome trace. */
const char *spanName(SpanKind kind);

struct Span
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int32_t parent = -1; ///< index of the enclosing span, -1 if none
    SpanKind kind = SpanKind::Count;
};

/** In-memory span recorder; disabled it costs one branch per probe. */
class SpanLog
{
  public:
    void enable(bool on) { on_ = on; }

    /** Open a span; returns its handle, -1 when disabled. */
    std::int32_t
    open(SpanKind kind)
    {
        if (!on_)
            return -1;
        const auto index = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(Span{nowNs(), 0, top_, kind});
        top_ = index;
        return index;
    }

    void
    close(std::int32_t index)
    {
        if (index < 0)
            return;
        spans_[index].end = nowNs();
        top_ = spans_[index].parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    void reserve(std::size_t n) { spans_.reserve(n); }

    /** Write every span as a Chrome trace ("X" events, microseconds). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::int32_t top_ = -1;
};

/** RAII span on a log. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, SpanKind kind) : log_(log), index_(log.open(kind))
    {}
    ~ScopedSpan() { log_.close(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    std::int32_t index_;
};

/**
 * Forwarding LaneEngine: times every call into the wrapped engine and
 * lists the slots it admitted, so the driver can tell continuing lanes
 * (which produce an inter-token gap) from lanes admitted this step and
 * knows which request each slot serves.
 */
class TimedEngine final : public hima::LaneEngine
{
  public:
    TimedEngine(std::unique_ptr<hima::LaneEngine> inner, SpanLog &log)
        : inner_(std::move(inner)), log_(log)
    {
        admitted_.reserve(inner_->capacity());
    }

    void
    stepInto(const std::vector<hima::Vector> &inputs,
             std::vector<hima::Vector> &outputs) override
    {
        lastActive_ = inner_->activeLanes();
        ScopedSpan span(log_, SpanKind::EngineStep);
        inner_->stepInto(inputs, outputs);
    }

    Index
    admit() override
    {
        ScopedSpan span(log_, SpanKind::EngineAdmit);
        const Index slot = inner_->admit();
        admitted_.push_back(slot);
        return slot;
    }

    void
    markDraining(Index slot) override
    {
        ScopedSpan span(log_, SpanKind::EngineDrain);
        inner_->markDraining(slot);
    }

    void
    release(Index slot) override
    {
        ScopedSpan span(log_, SpanKind::EngineRelease);
        inner_->release(slot);
    }

    hima::LaneState laneState(Index slot) const override
    {
        return inner_->laneState(slot);
    }
    Index activeLanes() const override { return inner_->activeLanes(); }
    Index drainingLanes() const override { return inner_->drainingLanes(); }
    Index freeLanes() const override { return inner_->freeLanes(); }
    Index capacity() const override { return inner_->capacity(); }
    void reset() override { inner_->reset(); }
    const hima::DncConfig &config() const override
    {
        return inner_->config();
    }

    /** Active lanes at the start of the last stepInto(). */
    Index lastActive() const { return lastActive_; }

    /** Slots admitted since the caller last cleared the list. */
    std::vector<Index> &admitted() { return admitted_; }

  private:
    std::unique_ptr<hima::LaneEngine> inner_;
    SpanLog &log_;
    Index lastActive_ = 0;
    std::vector<Index> admitted_;
};

class TimedChannel;

/**
 * Wire traffic of every channel a fleet ever had. A lane group drops a
 * dead worker's channel when it recovers, so channels fold their
 * counters in here when destroyed.
 */
struct WireTally
{
    std::uint64_t retiredFrames = 0;
    std::uint64_t retiredBytes = 0;
    std::vector<const TimedChannel *> live; ///< channels still in use

    /** Frames and bytes, both directions, over all channels so far. */
    void totals(std::uint64_t &frames, std::uint64_t &bytes) const;
};

/** Forwarding Channel: times sends and receive waits. */
class TimedChannel final : public hima::Channel
{
  public:
    TimedChannel(std::unique_ptr<hima::Channel> inner, SpanLog &log,
                 WireTally &tally);
    ~TimedChannel() override;

    TimedChannel(const TimedChannel &) = delete;
    TimedChannel &operator=(const TimedChannel &) = delete;

    void sendFrame(const std::uint8_t *data, std::size_t size) override;
    void queueFrame(const std::uint8_t *data, std::size_t size) override;
    void flush() override;
    hima::WireWriter *beginFrame() override;
    void endFrame() override;
    bool recvFrame(std::vector<std::uint8_t> &frame) override;
    bool recvFrameView(const std::uint8_t *&data, std::size_t &size,
                       std::vector<std::uint8_t> &scratch) override;
    void setRecvTimeout(int ms) override { inner_->setRecvTimeout(ms); }
    bool timedOut() const override { return inner_->timedOut(); }

    const hima::Channel &inner() const { return *inner_; }

  private:
    std::unique_ptr<hima::Channel> inner_;
    SpanLog &log_;
    WireTally &tally_;
};

} // namespace servebench

#endif // SERVEBENCH_PROBES_H
