/**
 * @file
 * The load generator and measurement loop. A Schedule is built from the
 * workload module before any timing (arrival trace + task-suite token
 * streams); the pass then feeds it to the Router on the wall clock and
 * records, per request and per router step, what the end-to-end and
 * per-layer metrics are computed from.
 */

#ifndef SERVEBENCH_DRIVER_H
#define SERVEBENCH_DRIVER_H

#include <cstdint>
#include <map>
#include <vector>

#include "stack.h"

namespace servebench {

/** One request of a schedule; its id is its index. */
struct Request
{
    std::uint64_t dueNs = 0; ///< open loop: send time after pass start
    std::vector<hima::Vector> tokens;
};

/**
 * Open loop: every request of the pass, in send order. Closed loop: a
 * pool the clients cycle through, so request id k carries the tokens of
 * requests[k % size] and the pool's size does not depend on how many
 * requests the stack completes.
 */
struct Schedule
{
    std::vector<Request> requests;
    std::uint64_t horizonNs = 0; ///< no new request is sent after this

    const std::vector<hima::Vector> &tokens(std::uint64_t id) const
    {
        return requests[id % requests.size()].tokens;
    }
};

/**
 * Inputs of one run, from the seed alone. Open loop: requestsPerSecond
 * x seconds arrivals at Poisson (sorted uniform) times. Closed loop: a
 * pool of kClosedLoopRounds rounds of the task suite. Episodes are
 * task-suite episodes unless the workload fixes their length.
 */
Schedule makeSchedule(const Workload &w, std::uint64_t seed, double seconds);

/** A weighted sample (value, how many lanes observed it). */
struct Weighted
{
    double value;
    std::uint64_t weight;
};

/** A weighted sample stamped with when it was taken. */
struct Sample
{
    std::uint64_t atNs; ///< since the pass started
    double value;
    std::uint64_t weight;
};

/** Everything one measured pass records. */
struct PassResult
{
    std::uint64_t attempted = 0; ///< requests sent
    std::uint64_t rejected = 0;  ///< refused by a full queue
    std::uint64_t unfinished = 0;
    std::uint64_t laneSteps = 0;
    std::uint64_t routerSteps = 0;
    std::uint64_t allocs = 0; ///< heap allocations inside Router::step
    std::uint64_t horizonNs = 0;

    std::vector<Sample> latencyMs; ///< due time -> last output, at finish
    std::vector<Sample> gapMs;     ///< inter-token gaps, weight = lanes
    std::vector<Sample> stepMs;    ///< Router::step, weight = lanes stepped
    std::vector<double> queueWaitMs; ///< due time -> admission
    std::vector<double> lateMs;      ///< how late each send ran
    std::vector<double> occupancy;   ///< active lanes / capacity per step
    std::vector<double> checkpointStepMs;
    std::vector<double> recoveryStepMs;
    std::vector<double> respawnMs;

    hima::KernelProfiler kernels; ///< counters accrued during the pass
    std::uint64_t wireFrames = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t recoveries = 0;

    /**
     * Outputs kept for the correctness check, by request id: those of
     * the completed requests whose id is a multiple of keepStride (the
     * stride doubles whenever more than 2 x kKeepEvenly are kept, so
     * the kept set stays small and evenly spread over the run), and
     * those of the first kKeepSpanningKill requests in flight across a
     * kill.
     */
    std::map<std::uint64_t, std::vector<hima::Vector>> outputs;
    std::uint64_t keepStride = 1;
    /** Requests in flight during a recovery step (at most kKeepSpanningKill). */
    std::vector<std::uint64_t> spansKill;

    std::uint64_t windowNs = 0; ///< pass wall time (trace window)
};

/** Outputs kept evenly over a pass, and across kills (see outputs). */
constexpr std::uint64_t kKeepEvenly = 12;
constexpr std::size_t kKeepSpanningKill = 8;

/** Serve one schedule on a warmed stack and record everything. */
PassResult runPass(ServingStack &stack, const Workload &w,
                   const Schedule &schedule, SpanLog &log);

} // namespace servebench

#endif // SERVEBENCH_DRIVER_H
