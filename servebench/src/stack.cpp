#include "stack.h"

#include "arch/arch_config.h"
#include "arch/engine.h"
#include "dnc/controller.h"
#include "dnc/dnc.h"
#include "shard/local_cluster.h"
#include "shard/sharded_dnc.h"

namespace servebench {

using namespace hima;

const std::vector<Workload> &
workloads()
{
    // Fixed load, never re-derived per run (README.md gives the
    // capacities these were chosen against).
    static const std::vector<Workload> all = {
        {"local_skim_open", Backend::Batched, Loop::Closed, 1e-2, 0.0, kLanes,
         0, 0},
        {"local_exact_long", Backend::Batched, Loop::Closed, 0.0, 0.0, kLanes,
         96, 0},
        {"shard_open", Backend::Sharded, Loop::Closed, 0.0, 0.0, 8, 0, 0},
        {"shard_recover", Backend::Sharded, Loop::Closed, 0.0, 0.0, 8, 0,
         400},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

DncConfig
workloadConfig(const Workload &w)
{
    DncConfig cfg; // N=1024, W=64, R=4, LSTM 256: the paper's point
    cfg.batchSize = kLanes;
    cfg.routerQueueCapacity = 4096;
    cfg.writeSkipThreshold = w.skipThreshold;
    cfg.linkageSkipThreshold = w.skipThreshold;
    cfg.readSkipThreshold = w.skipThreshold;
    if (w.backend == Backend::Batched) {
        cfg.numThreads = 4; // the driver thread is one of the pool lanes
    } else {
        // Driver thread + one serve thread per worker: 3 threads.
        cfg.numThreads = 1;
        cfg.shardCheckpointIntervalSteps = kCheckpointInterval;
        cfg.shardRecvTimeoutMs = 5000;
    }
    cfg.validate();
    return cfg;
}

KernelProfiler
profilerDiff(const KernelProfiler &a, const KernelProfiler &b)
{
    KernelProfiler out;
    for (int k = 0; k < static_cast<int>(Kernel::NumKernels); ++k) {
        const KernelCounters &x = a.at(static_cast<Kernel>(k));
        const KernelCounters &y = b.at(static_cast<Kernel>(k));
        KernelCounters &d = out.at(static_cast<Kernel>(k));
        d.invocations = x.invocations - y.invocations;
        d.macOps = x.macOps - y.macOps;
        d.elementOps = x.elementOps - y.elementOps;
        d.specialOps = x.specialOps - y.specialOps;
        d.compareOps = x.compareOps - y.compareOps;
        d.extMemAccesses = x.extMemAccesses - y.extMemAccesses;
        d.stateMemAccesses = x.stateMemAccesses - y.stateMemAccesses;
        d.nanoseconds = x.nanoseconds - y.nanoseconds;
        d.skippedRows = x.skippedRows - y.skippedRows;
        d.skippedOps = x.skippedOps - y.skippedOps;
    }
    return out;
}

ServingStack::ServingStack(const Workload &w, SpanLog &log) : log_(log)
{
    const DncConfig cfg = workloadConfig(w);
    std::unique_ptr<LaneEngine> inner;
    if (w.backend == Backend::Batched) {
        auto batched = std::make_unique<BatchedDnc>(cfg, kWeightSeed);
        batched_ = batched.get();
        inner = std::move(batched);
    } else {
        const std::size_t slotBytes = shmSlotBytesFor(
            shardConfigFor(cfg, kTiles), (kTiles + kWorkers - 1) / kWorkers,
            kLanes);
        const int timeoutMs = static_cast<int>(cfg.shardRecvTimeoutMs);
        std::vector<std::unique_ptr<Channel>> channels;
        for (Index k = 0; k < kWorkers; ++k)
            channels.push_back(std::make_unique<TimedChannel>(
                makeClusterWorker(ClusterTransport::Shm, workers_, threads_,
                                  slotBytes, timeoutMs),
                log_, tally_));
        slice0_ = workers_.front().get();
        group_ = std::make_shared<ShardLaneGroup>(
            cfg, kTiles, kLanes, MergePolicy::Confidence,
            std::move(channels));
        group_->setRespawner([this, slotBytes, timeoutMs](Index k) {
            ScopedSpan span(log_, SpanKind::Respawn);
            const std::uint64_t start = nowNs();
            auto channel = std::make_unique<TimedChannel>(
                makeClusterWorker(ClusterTransport::Shm, workers_, threads_,
                                  slotBytes, timeoutMs),
                log_, tally_);
            if (k == 0)
                slice0_ = workers_.back().get();
            respawnNs_.push_back(nowNs() - start);
            return channel;
        });
        inner = std::make_unique<PipelinedShardedLaneEngine>(
            cfg, kWeightSeed, group_);
    }
    auto engine = std::make_unique<TimedEngine>(std::move(inner), log_);
    engine_ = engine.get();
    router_ = std::make_unique<Router>(std::move(engine));
}

ServingStack::~ServingStack()
{
    // The engine co-owns the lane group; the group's Shutdown frames
    // end every serve loop, so both go before the joins.
    router_.reset();
    group_.reset();
    for (std::thread &t : threads_)
        t.join();
}

std::uint64_t
ServingStack::checkpoints() const
{
    return group_ ? group_->checkpointsTaken() : 0;
}

std::uint64_t
ServingStack::recoveries() const
{
    return group_ ? group_->recoveries() : 0;
}

void
ServingStack::armKill()
{
    if (slice0_ == nullptr)
        return;
    FaultSpec kill;
    kill.killAtStepFrame = 1;
    slice0_->injectFault(kill);
}

void
ServingStack::reapDeadWorkers()
{
    for (std::size_t i = 0; i < workers_.size();) {
        if (!workers_[i]->faultFired()) {
            ++i;
            continue;
        }
        // A killed worker's serve loop has returned; keep its kernel
        // counts, free its tiles.
        threads_[i].join();
        retiredKernels_.merge(tileTotals(*workers_[i]));
        workers_.erase(workers_.begin() + i);
        threads_.erase(threads_.begin() + i);
    }
}

KernelProfiler
ServingStack::tileTotals(const ShardWorker &worker)
{
    KernelProfiler total;
    if (!worker.configured())
        return total;
    for (Index lane = 0; lane < worker.lanes(); ++lane)
        for (Index i = 0; i < worker.hostedTiles(); ++i)
            total.merge(worker.laneTile(lane, i).profiler());
    return total;
}

KernelProfiler
ServingStack::kernelTotals() const
{
    KernelProfiler total;
    if (batched_ != nullptr) {
        for (Index s = 0; s < batched_->capacity(); ++s)
            total.merge(batched_->laneMemory(s).profiler());
        return total;
    }
    total.merge(retiredKernels_);
    for (const auto &worker : workers_)
        total.merge(tileTotals(*worker));
    return total;
}

Index
ServingStack::rowsPerUnit() const
{
    const Index n = engine_->config().memoryRows;
    return group_ ? n / kTiles : n;
}

struct Reference::Impl
{
    std::unique_ptr<Dnc> dnc;
    std::unique_ptr<ShardedDnc> sharded;
};

Reference::Reference(const Workload &w) : impl_(std::make_unique<Impl>())
{
    const DncConfig cfg = workloadConfig(w);
    if (w.backend == Backend::Batched)
        impl_->dnc = std::make_unique<Dnc>(cfg, kWeightSeed);
    else
        impl_->sharded = std::make_unique<ShardedDnc>(
            cfg, kWeightSeed, std::make_unique<DncD>(cfg, kTiles));
}

Reference::~Reference() = default;

bool
Reference::matches(const std::vector<Vector> &tokens,
                   const std::vector<Vector> &outputs)
{
    if (tokens.size() != outputs.size())
        return false;
    if (impl_->dnc)
        impl_->dnc->reset();
    else
        impl_->sharded->reset();
    for (Index t = 0; t < tokens.size(); ++t) {
        const Vector want = impl_->dnc ? impl_->dnc->step(tokens[t])
                                       : impl_->sharded->step(tokens[t]);
        if (!(want == outputs[t]))
            return false;
    }
    return true;
}

KernelCounters
lstmCounters(const Workload &w, Index steps, std::uint64_t seed)
{
    const DncConfig cfg = workloadConfig(w);
    Rng weights(kWeightSeed);
    Controller controller(cfg, weights);
    Rng rng(seed);
    std::vector<Vector> inputs;
    for (Index t = 0; t < steps; ++t)
        inputs.push_back(rng.normalVector(cfg.inputSize));
    const std::vector<Vector> reads(cfg.readHeads, Vector(cfg.memoryWidth));
    KernelProfiler profiler;
    for (const Vector &x : inputs)
        controller.stepInto(x, reads, &profiler);
    return profiler.at(Kernel::Lstm);
}

std::vector<PredictedKernel>
predictStep(const Workload &w, std::uint64_t &total, double &clockGhz)
{
    const DncConfig cfg = workloadConfig(w);
    ArchConfig arch = w.backend == Backend::Sharded ? himaDncDConfig(kTiles)
                                                    : himaDncConfig(16);
    arch.dnc.memoryRows = cfg.memoryRows;
    arch.dnc.memoryWidth = cfg.memoryWidth;
    arch.dnc.readHeads = cfg.readHeads;
    arch.dnc.controllerSize = cfg.controllerSize;
    arch.dnc.inputSize = cfg.inputSize;
    arch.dnc.outputSize = cfg.outputSize;
    arch.finalize();
    HimaEngine engine(arch);
    const StepTiming timing = engine.simulateStep();
    std::vector<PredictedKernel> out;
    for (int k = 0; k < static_cast<int>(Kernel::NumKernels); ++k)
        out.push_back({static_cast<Kernel>(k), 0});
    for (const StageTiming &stage : timing.stages)
        out[static_cast<int>(stage.kernel)].cycles += stage.total();
    total = timing.totalCycles;
    clockGhz = arch.clockGhz;
    return out;
}

} // namespace servebench
