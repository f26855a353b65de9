#include "driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>

#include "workload/arrival.h"

namespace servebench {

using namespace hima;

namespace {

/**
 * Longest a pass may keep draining after its schedule ends; requests
 * still in flight then count as unfinished (a saturated stack fails
 * the run instead of overrunning its time limit).
 */
constexpr std::uint64_t kDrainGraceNs = 40ull * 1000000000ull;

/** Closed-loop request pools hold this many rounds of the task suite. */
constexpr Index kClosedLoopRounds = 8;

/** Token streams depend on the run seed only through this mix. */
std::uint64_t
tokenSeed(std::uint64_t seed)
{
    return seed * 0x9e3779b97f4a7c15ull + 0x5eed;
}

double
toMs(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** Keep a completed request's outputs if the check may replay it. */
void
keepOutputs(PassResult &out, ServeResult &result, bool spansKill)
{
    if (!spansKill && result.id % out.keepStride != 0)
        return;
    out.outputs[result.id] = std::move(result.outputs);
    std::uint64_t even = 0;
    for (const auto &kept : out.outputs)
        even += kept.first % out.keepStride == 0;
    if (even <= 2 * kKeepEvenly)
        return;
    out.keepStride *= 2;
    std::erase_if(out.outputs, [&](const auto &kept) {
        return kept.first % out.keepStride != 0 &&
               std::find(out.spansKill.begin(), out.spansKill.end(),
                         kept.first) == out.spansKill.end();
    });
}

} // namespace

Schedule
makeSchedule(const Workload &w, std::uint64_t seed, double seconds)
{
    const DncConfig cfg = workloadConfig(w);
    Schedule schedule;
    schedule.horizonNs = static_cast<std::uint64_t>(seconds * 1e9);
    const std::vector<TaskSpec> suite = taskSuite();
    Rng rng(seed);
    Index count = 0;
    std::vector<std::uint64_t> due;
    if (w.loop == Loop::Open) {
        // A Poisson process conditioned on its count: exactly rate x
        // seconds arrivals at sorted uniform times, so every seed offers
        // the same load.
        count = static_cast<Index>(std::llround(w.requestsPerSecond * seconds));
        for (Index i = 0; i < count; ++i)
            due.push_back(static_cast<std::uint64_t>(
                rng.uniform() * static_cast<double>(schedule.horizonNs)));
        std::sort(due.begin(), due.end());
    } else {
        count = kClosedLoopRounds * suite.size();
        due.assign(count, 0);
    }
    // Task-suite episodes walk the suite in seed-shuffled rounds, so
    // every seed offers the same episode-length mix.
    std::vector<Index> round;
    std::vector<ArrivalEvent> events;
    for (Index i = 0; i < count; ++i) {
        if (i % suite.size() == 0)
            round = rng.permutation(suite.size());
        const TaskSpec &task = suite[round[i % suite.size()]];
        events.push_back(ArrivalEvent{
            i, i, task.id,
            w.episodeLen != 0 ? w.episodeLen : episodeSteps(task)});
    }
    schedule.requests.reserve(events.size());
    for (Index i = 0; i < events.size(); ++i) {
        Request request;
        request.dueNs = due[i];
        request.tokens =
            requestTokens(events[i], cfg.inputSize, tokenSeed(seed));
        schedule.requests.push_back(std::move(request));
    }
    return schedule;
}

PassResult
runPass(ServingStack &stack, const Workload &w, const Schedule &schedule,
        SpanLog &log)
{
    Router &router = stack.router();
    TimedEngine &engine = stack.engine();
    const bool open = w.loop == Loop::Open;
    // Requests the pass may send: a closed loop cycles its pool until
    // the horizon.
    const std::size_t n = open ? schedule.requests.size() : SIZE_MAX;

    PassResult out;
    std::vector<std::uint64_t> due;           // absolute send deadline, by id
    std::vector<bool> spans;                  // by id: in flight at a kill
    std::deque<std::uint64_t> fifo;           // accepted, not admitted
    std::vector<std::int64_t> slotRequest(engine.capacity(), -1);

    const KernelProfiler kernelsBefore = stack.kernelTotals();
    std::uint64_t framesBefore = 0, bytesBefore = 0;
    stack.wireTotals(framesBefore, bytesBefore);
    const std::uint64_t checkpointsBefore = stack.checkpoints();
    const std::uint64_t recoveriesBefore = stack.recoveries();
    const std::size_t respawnsBefore = stack.respawnNs().size();
    engine.admitted().clear();
    router.completed().clear();

    const std::uint64_t t0 = nowNs();
    const std::uint64_t horizonEnd = t0 + schedule.horizonNs;
    const std::uint64_t deadline = horizonEnd + kDrainGraceNs;
    std::uint64_t prevEnd = 0;
    std::size_t next = 0;
    bool killPending = false;

    auto send = [&](std::size_t id, std::uint64_t dueAt) {
        ServeRequest request;
        request.id = id;
        request.tokens = schedule.tokens(id);
        due.push_back(dueAt);
        spans.push_back(false);
        ++out.attempted;
        out.lateMs.push_back(toMs(nowNs() - dueAt));
        if (router.submit(std::move(request)))
            fifo.push_back(id);
        else
            ++out.rejected;
    };

    if (!open) {
        ScopedSpan span(log, SpanKind::DriverSubmit);
        for (; next < std::min<std::size_t>(n, w.clients); ++next)
            send(next, t0);
    }

    while (true) {
        if (open) {
            const std::uint64_t now = nowNs();
            if (next < n && t0 + schedule.requests[next].dueNs <= now) {
                ScopedSpan span(log, SpanKind::DriverSubmit);
                for (; next < n && t0 + schedule.requests[next].dueNs <= now;
                     ++next)
                    send(next, t0 + schedule.requests[next].dueNs);
            }
        }
        if (router.idle()) {
            if (!open || next >= n)
                break;
            ScopedSpan span(log, SpanKind::DriverWait);
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
                    t0 + schedule.requests[next].dueNs)));
            continue;
        }
        if (nowNs() > deadline)
            break;
        if (w.killEverySteps != 0 && out.routerSteps != 0 &&
            out.routerSteps % w.killEverySteps == 0)
            killPending = true;
        if (killPending && router.activeRequests() > 0) {
            stack.armKill();
            killPending = false;
        }

        const std::uint64_t checkpointsPrev = stack.checkpoints();
        const std::uint64_t recoveriesPrev = stack.recoveries();
        const std::uint64_t allocsPrev = allocCount();
        const std::uint64_t start = nowNs();
        {
            ScopedSpan span(log, SpanKind::RouterStep);
            router.step();
        }
        const std::uint64_t end = nowNs();
        out.allocs += allocCount() - allocsPrev;

        ScopedSpan span(log, SpanKind::DriverRecord);
        const double stepMs = toMs(end - start);
        const Index active = engine.lastActive();
        ++out.routerSteps;
        out.laneSteps += active;
        if (out.routerSteps % 1024 == 0)
            noteResident();
        out.stepMs.push_back({end - t0, stepMs, active});
        out.occupancy.push_back(static_cast<double>(active) /
                                static_cast<double>(engine.capacity()));

        // Admissions are FIFO over accepted requests.
        const Index admittedNow = engine.admitted().size();
        for (Index slot : engine.admitted()) {
            const std::uint64_t id = fifo.front();
            fifo.pop_front();
            slotRequest[slot] = static_cast<std::int64_t>(id);
            out.queueWaitMs.push_back(toMs(start - due[id]));
        }
        engine.admitted().clear();

        // Every lane stepped here that was not admitted here also
        // produced an output at the previous step's end.
        if (prevEnd != 0 && active > admittedNow)
            out.gapMs.push_back(
                {end - t0, toMs(end - prevEnd), active - admittedNow});
        prevEnd = end;

        if (stack.checkpoints() != checkpointsPrev)
            out.checkpointStepMs.push_back(stepMs);
        if (stack.recoveries() != recoveriesPrev) {
            stack.reapDeadWorkers();
            out.recoveryStepMs.push_back(stepMs);
            for (std::int64_t id : slotRequest)
                if (id >= 0 && !spans[id] &&
                    out.spansKill.size() < kKeepSpanningKill) {
                    spans[id] = true;
                    out.spansKill.push_back(static_cast<std::uint64_t>(id));
                }
        }

        for (ServeResult &result : router.completed()) {
            out.latencyMs.push_back({end - t0, toMs(end - due[result.id]), 1});
            keepOutputs(out, result, spans[result.id]);
            std::replace(slotRequest.begin(), slotRequest.end(),
                         static_cast<std::int64_t>(result.id),
                         std::int64_t{-1});
            if (!open && end < horizonEnd && next < n)
                send(next++, end);
        }
        router.completed().clear();
    }

    out.windowNs = nowNs() - t0;
    noteResident();
    out.horizonNs = schedule.horizonNs;
    out.unfinished = out.attempted - out.rejected - out.latencyMs.size();

    out.kernels = profilerDiff(stack.kernelTotals(), kernelsBefore);
    stack.wireTotals(out.wireFrames, out.wireBytes);
    out.wireFrames -= framesBefore;
    out.wireBytes -= bytesBefore;
    out.checkpoints = stack.checkpoints() - checkpointsBefore;
    out.recoveries = stack.recoveries() - recoveriesBefore;
    for (std::size_t i = respawnsBefore; i < stack.respawnNs().size(); ++i)
        out.respawnMs.push_back(toMs(stack.respawnNs()[i]));
    return out;
}

} // namespace servebench
