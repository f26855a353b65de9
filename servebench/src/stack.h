/**
 * @file
 * The four benchmark workloads and the serving stack each one runs:
 * the public Router over a timed LaneEngine, backed either by the
 * single-process BatchedDnc or by a PipelinedShardedLaneEngine whose
 * shm worker fleet the benchmark spawns itself (so every worker channel
 * is wrapped in a TimedChannel and the respawner is the benchmark's).
 */

#ifndef SERVEBENCH_STACK_H
#define SERVEBENCH_STACK_H

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dnc/kernel_profiler.h"
#include "probes.h"
#include "serve/batched_dnc.h"
#include "serve/router.h"
#include "shard/pipeline.h"
#include "shard/worker.h"

namespace servebench {

enum class Backend
{
    Batched, ///< Router -> BatchedDnc, one process
    Sharded, ///< Router -> PipelinedShardedLaneEngine -> shm workers
};

enum class Loop
{
    Open,   ///< Poisson arrivals on a wall-clock schedule
    Closed, ///< fixed clients, each resubmitting on completion
};

struct Workload
{
    const char *name;
    Backend backend;
    Loop loop;
    hima::Real skipThreshold; ///< write/linkage/read skip thresholds
    double requestsPerSecond; ///< open-loop arrival rate (fixed)
    Index clients;            ///< closed-loop concurrency
    Index episodeLen;         ///< fixed episode length (0: task suite)
    Index killEverySteps;     ///< router steps between kills (0: none)
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Workload by name, or null. */
const Workload *findWorkload(const std::string &name);

constexpr Index kLanes = 16;
constexpr Index kTiles = 8;
constexpr Index kWorkers = 2;
constexpr Index kCheckpointInterval = 64;
constexpr std::uint64_t kWeightSeed = 1;

/** Model and serving configuration of a workload. */
hima::DncConfig workloadConfig(const Workload &w);

/** Counter-wise a - b (for differencing two profiler readings). */
hima::KernelProfiler profilerDiff(const hima::KernelProfiler &a,
                                  const hima::KernelProfiler &b);

/** A ready-to-serve stack; construction is what setup_s times. */
class ServingStack
{
  public:
    ServingStack(const Workload &w, SpanLog &log);
    ~ServingStack();

    ServingStack(const ServingStack &) = delete;
    ServingStack &operator=(const ServingStack &) = delete;

    hima::Router &router() { return *router_; }
    TimedEngine &engine() { return *engine_; }

    /** Checkpoint pulls and recoveries so far (0 when not sharded). */
    std::uint64_t checkpoints() const;
    std::uint64_t recoveries() const;

    /**
     * Arm the worker currently serving tile slice 0 to die just before
     * serving its next step frame. Call between router steps only (the
     * lane group's window is empty then, so the worker is idle).
     */
    void armKill();

    /**
     * Join and free workers killed by armKill() once the lane group has
     * replaced them (their kernel counts are kept). Call between steps.
     */
    void reapDeadWorkers();

    /** Wall time of every respawner call so far (ns). */
    const std::vector<std::uint64_t> &respawnNs() const { return respawnNs_; }

    /** Frames and bytes over every channel the fleet ever had. */
    void wireTotals(std::uint64_t &frames, std::uint64_t &bytes) const
    {
        tally_.totals(frames, bytes);
    }

    /**
     * Kernel counters summed over every lane's memory unit (batched) or
     * every tile of every worker ever spawned (sharded, dead ones too).
     */
    hima::KernelProfiler kernelTotals() const;

    /** Tile rows one memory unit sweeps (N, or N / tiles when sharded). */
    Index rowsPerUnit() const;

  private:
    static hima::KernelProfiler tileTotals(const hima::ShardWorker &worker);

    SpanLog &log_;
    WireTally tally_;
    hima::KernelProfiler retiredKernels_; ///< of reaped workers
    std::vector<std::shared_ptr<hima::ShardWorker>> workers_;
    std::vector<std::thread> threads_;
    std::shared_ptr<hima::ShardLaneGroup> group_;
    hima::ShardWorker *slice0_ = nullptr;
    std::vector<std::uint64_t> respawnNs_;
    const hima::BatchedDnc *batched_ = nullptr;
    TimedEngine *engine_ = nullptr; ///< owned by router_
    std::unique_ptr<hima::Router> router_;
};

/**
 * Dedicated sequential reference for the correctness check: a
 * Dnc(config, seed) for the local workloads, a ShardedDnc over an
 * in-process DncD for the sharded ones.
 */
class Reference
{
  public:
    explicit Reference(const Workload &w);
    ~Reference();

    /** Replay one request from a fresh episode; true when bit-identical. */
    bool matches(const std::vector<hima::Vector> &tokens,
                 const std::vector<hima::Vector> &outputs);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * LSTM kernel counters for `steps` single-lane controller steps. The
 * serving engines do not profile their controllers, so the LSTM row is
 * measured on a standalone Controller with the workload's shapes.
 */
hima::KernelCounters lstmCounters(const Workload &w, Index steps,
                                  std::uint64_t seed);

/** One kernel's predicted cycles from the HiMA cycle model. */
struct PredictedKernel
{
    hima::Kernel kernel;
    std::uint64_t cycles;
};

/**
 * HimaEngine::simulateStep for the workload's shape: the monolithic
 * DNC on 16 tiles for the local workloads, DNC-D on kTiles tiles for
 * the sharded ones. Returns per-kernel cycles; `total` gets the step.
 */
std::vector<PredictedKernel> predictStep(const Workload &w,
                                         std::uint64_t &total,
                                         double &clockGhz);

} // namespace servebench

#endif // SERVEBENCH_STACK_H
