#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

// ---------------------------------------------------------------------
// Allocation counter: replaces the global operator new so the driver
// can count heap allocations across a Router::step() (the library's
// zero-allocation steady-state contract). Relaxed increments: the count
// is read on the driver thread between steps, after every worker reply
// of that step has been received.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace servebench {

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

namespace {

double g_peakResidentKb = 0;

} // namespace

void
noteResident()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return;
    double rssKb = 0, shmemKb = 0;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmRSS:", 6) == 0)
            rssKb = std::atof(line + 6);
        else if (std::strncmp(line, "RssShmem:", 9) == 0)
            shmemKb = std::atof(line + 9);
    }
    std::fclose(f);
    g_peakResidentKb = std::max(g_peakResidentKb, rssKb - shmemKb);
}

double
peakResidentMb()
{
    return g_peakResidentKb / 1024.0;
}

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::RouterStep: return "router.step";
    case SpanKind::EngineStep: return "engine.stepInto";
    case SpanKind::EngineAdmit: return "engine.admit";
    case SpanKind::EngineDrain: return "engine.markDraining";
    case SpanKind::EngineRelease: return "engine.release";
    case SpanKind::TransportSend: return "transport.send";
    case SpanKind::TransportRecv: return "transport.recv_wait";
    case SpanKind::Respawn: return "recovery.respawn";
    case SpanKind::DriverSubmit: return "driver.submit";
    case SpanKind::DriverWait: return "driver.wait";
    case SpanKind::DriverRecord: return "driver.record";
    case SpanKind::Count: break;
    }
    return "unknown";
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f}\n",
                     i == 0 ? "" : ",", spanName(s.kind),
                     static_cast<double>(s.start - origin) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3);
    }
    std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
    return std::fclose(f) == 0;
}

void
WireTally::totals(std::uint64_t &frames, std::uint64_t &bytes) const
{
    frames = retiredFrames;
    bytes = retiredBytes;
    for (const TimedChannel *c : live) {
        const hima::Channel &in = c->inner();
        frames += in.sentStats().totalFrames() +
                  in.receivedStats().totalFrames();
        bytes += in.sentStats().totalBytes() + in.receivedStats().totalBytes();
    }
}

TimedChannel::TimedChannel(std::unique_ptr<hima::Channel> inner,
                           SpanLog &log, WireTally &tally)
    : inner_(std::move(inner)), log_(log), tally_(tally)
{
    tally_.live.push_back(this);
}

TimedChannel::~TimedChannel()
{
    tally_.retiredFrames += inner_->sentStats().totalFrames() +
                            inner_->receivedStats().totalFrames();
    tally_.retiredBytes += inner_->sentStats().totalBytes() +
                           inner_->receivedStats().totalBytes();
    std::erase(tally_.live, this);
}

void
TimedChannel::sendFrame(const std::uint8_t *data, std::size_t size)
{
    ScopedSpan span(log_, SpanKind::TransportSend);
    inner_->sendFrame(data, size);
}

void
TimedChannel::queueFrame(const std::uint8_t *data, std::size_t size)
{
    ScopedSpan span(log_, SpanKind::TransportSend);
    inner_->queueFrame(data, size);
}

void
TimedChannel::flush()
{
    ScopedSpan span(log_, SpanKind::TransportSend);
    inner_->flush();
}

hima::WireWriter *
TimedChannel::beginFrame()
{
    ScopedSpan span(log_, SpanKind::TransportSend);
    return inner_->beginFrame();
}

void
TimedChannel::endFrame()
{
    ScopedSpan span(log_, SpanKind::TransportSend);
    inner_->endFrame();
}

bool
TimedChannel::recvFrame(std::vector<std::uint8_t> &frame)
{
    ScopedSpan span(log_, SpanKind::TransportRecv);
    return inner_->recvFrame(frame);
}

bool
TimedChannel::recvFrameView(const std::uint8_t *&data, std::size_t &size,
                            std::vector<std::uint8_t> &scratch)
{
    ScopedSpan span(log_, SpanKind::TransportRecv);
    return inner_->recvFrameView(data, size, scratch);
}

} // namespace servebench
