/**
 * @file
 * servebench: one serving benchmark for the DNC stack.
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *              [--trace-out PATH]
 *   servebench --selftest
 *
 * Builds the workload's serving stack (timed as set-up), warms it, then
 * serves a seed-generated schedule for S seconds through the public
 * Router. With --trace 0 it prints the end-to-end metrics; with
 * --trace 1 it serves the schedule once untraced and once traced and
 * prints the per-layer metrics (span self times, exact counters, the
 * cycle-model prediction next to the measured kernel times). Outputs
 * of a sample of requests are replayed on a dedicated sequential
 * reference afterwards; any mismatch fails the run (exit code 1).
 * The last line of stdout is one JSON object with the results.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver.h"

namespace servebench {
namespace {

using namespace hima;

constexpr int kSetupReps = 9;
constexpr double kWarmupS = 1.0;
constexpr std::uint64_t kWarmupSalt = 0x77a2b3c4d5e6f701ull;
constexpr Index kLstmProbeSteps = 64;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool selftest = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (!(args.seconds > 0 && args.seconds <= 120))
                return false;
        } else if (flag == "--trace") {
            args.trace = std::strcmp(value, "1") == 0;
            if (!args.trace && std::strcmp(value, "0") != 0)
                return false;
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return args.selftest || !args.workload.empty();
}

// --- statistics --------------------------------------------------------

/** Linear-interpolated quantile (p in [0, 1]); 0 for no samples. */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Smallest value whose cumulative weight reaches p of the total. */
double
weightedQuantile(std::vector<Weighted> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end(),
              [](const Weighted &a, const Weighted &b) {
                  return a.value < b.value;
              });
    std::uint64_t total = 0;
    for (const Weighted &x : v)
        total += x.weight;
    const double target = p * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (const Weighted &x : v) {
        cumulative += x.weight;
        if (static_cast<double>(cumulative) >= target)
            return x.value;
    }
    return v.back().value;
}

/**
 * Windowed statistics: the horizon is cut into kWindows equal windows
 * (samples taken while draining after it count in the last one), the
 * statistic is computed per window, and the median over windows is
 * reported, so a disturbance confined to one window does not move it.
 */
constexpr std::uint64_t kWindows = 4;

std::size_t
windowOf(std::uint64_t atNs, std::uint64_t horizonNs)
{
    return static_cast<std::size_t>(
        std::min(kWindows - 1, atNs * kWindows / horizonNs));
}

/** Median over windows of each window's weighted p-quantile. */
double
windowedQuantile(const std::vector<Sample> &samples, std::uint64_t horizonNs,
                 double p)
{
    std::vector<std::vector<Weighted>> windows(kWindows);
    for (const Sample &s : samples)
        windows[windowOf(s.atNs, horizonNs)].push_back({s.value, s.weight});
    std::vector<double> perWindow;
    for (const auto &w : windows)
        if (!w.empty())
            perWindow.push_back(weightedQuantile(w, p));
    return quantile(perWindow, 0.5);
}

/** Lane-steps per second: median over the windows of the horizon. */
double
windowedThroughput(const std::vector<Sample> &steps, std::uint64_t horizonNs)
{
    std::vector<double> laneSteps(kWindows, 0.0);
    for (const Sample &s : steps)
        if (s.atNs < horizonNs)
            laneSteps[windowOf(s.atNs, horizonNs)] +=
                static_cast<double>(s.weight);
    const double windowS = static_cast<double>(horizonNs) / 1e9 / kWindows;
    for (double &x : laneSteps)
        x /= windowS;
    return quantile(laneSteps, 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double
sum(const std::vector<double> &v)
{
    double total = 0;
    for (double x : v)
        total += x;
    return total;
}

std::vector<double>
values(const std::vector<Sample> &samples)
{
    std::vector<double> out;
    for (const Sample &s : samples)
        out.push_back(s.value);
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

// --- output ------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Metric name form of a kernel: snake_case of kernelName(). */
std::string
kernelKey(Kernel k)
{
    std::string out;
    for (const char *p = kernelName(k); *p != '\0'; ++p) {
        if (std::isalnum(static_cast<unsigned char>(*p)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(*p)));
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-48s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                    metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

// --- correctness -------------------------------------------------------

struct Check
{
    std::uint64_t replayed = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t spanningKill = 0;
};

/**
 * Replay an evenly spaced sample of completed requests (plus, when
 * workers were killed, requests that were in flight across a kill) on
 * the workload's dedicated reference; outputs must match bit for bit.
 */
Check
checkOutputs(const Workload &w, const Schedule &schedule,
             const PassResult &pass)
{
    std::vector<std::uint64_t> even;
    for (const auto &[id, outputs] : pass.outputs)
        if (id % pass.keepStride == 0)
            even.push_back(id);
    std::vector<std::uint64_t> sample;
    const std::size_t stride =
        std::max<std::size_t>(1, even.size() / kKeepEvenly);
    for (std::size_t i = 0; i < even.size() && sample.size() < kKeepEvenly;
         i += stride)
        sample.push_back(even[i]);
    Check check;
    for (std::uint64_t id : pass.spansKill) {
        if (!pass.outputs.contains(id) ||
            std::find(sample.begin(), sample.end(), id) != sample.end())
            continue;
        sample.push_back(id);
        ++check.spanningKill;
    }
    Reference reference(w);
    for (std::uint64_t id : sample) {
        ++check.replayed;
        if (!reference.matches(schedule.tokens(id), pass.outputs.at(id)))
            ++check.mismatched;
    }
    return check;
}

// --- per-layer attribution from spans ----------------------------------

struct Attribution
{
    double routerSelfMs = 0;
    double engineSelfMs = 0;
    double sendMs = 0;
    double recvMs = 0;
    double respawnMs = 0;
    double driverMs = 0;
    double topLevelMs = 0;   ///< sum of root spans = sum of self times
    double routerStepMs = 0; ///< sum of Router::step spans
    double admitMs = 0;
    std::vector<double> engineStepMs;
    std::vector<double> admitCallMs;
};

/** Self time = span duration minus the time its child spans cover. */
Attribution
attribute(const SpanLog &log)
{
    const std::vector<Span> &spans = log.spans();
    std::vector<std::uint64_t> childNs(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childNs[s.parent] += s.end - s.start;
    Attribution a;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = static_cast<double>(s.end - s.start) / 1e6;
        const double self =
            static_cast<double>(s.end - s.start - childNs[i]) / 1e6;
        if (s.parent < 0)
            a.topLevelMs += dur;
        switch (s.kind) {
        case SpanKind::RouterStep:
            a.routerSelfMs += self;
            a.routerStepMs += dur;
            break;
        case SpanKind::EngineStep:
            a.engineSelfMs += self;
            a.engineStepMs.push_back(dur);
            break;
        case SpanKind::EngineAdmit:
            a.engineSelfMs += self;
            a.admitMs += dur;
            a.admitCallMs.push_back(dur);
            break;
        case SpanKind::EngineDrain:
        case SpanKind::EngineRelease:
            a.engineSelfMs += self;
            break;
        case SpanKind::TransportSend: a.sendMs += self; break;
        case SpanKind::TransportRecv: a.recvMs += self; break;
        case SpanKind::Respawn: a.respawnMs += self; break;
        case SpanKind::DriverSubmit:
        case SpanKind::DriverWait:
        case SpanKind::DriverRecord: a.driverMs += self; break;
        case SpanKind::Count: break;
        }
    }
    return a;
}

/** Mean Router::step wall time per lane-step of a pass. */
double
stepMsPerLaneStep(const PassResult &p)
{
    return ratio(sum(values(p.stepMs)), static_cast<double>(p.laneSteps));
}

std::vector<Metric>
endToEndMetrics(const PassResult &p, double setupS, double servedFrac)
{
    const std::uint64_t h = p.horizonNs;
    return {
        {"req_p50_ms", windowedQuantile(p.latencyMs, h, 0.50), "ms"},
        {"req_p95_ms", quantile(values(p.latencyMs), 0.95), "ms"},
        {"gap_p50_ms", windowedQuantile(p.gapMs, h, 0.50), "ms"},
        {"gap_p99_ms", windowedQuantile(p.gapMs, h, 0.99), "ms"},
        {"lane_steps_per_s", windowedThroughput(p.stepMs, h), "1/s"},
        {"served_frac", servedFrac, "fraction"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakResidentMb(), "MB"},
    };
}

std::vector<Metric>
perLayerMetrics(const Workload &w, const ServingStack &stack,
                const PassResult &plain, const PassResult &traced,
                const SpanLog &log, std::uint64_t seed)
{
    const Attribution a = attribute(log);
    const double steps = static_cast<double>(traced.routerSteps);
    const double laneSteps = static_cast<double>(traced.laneSteps);
    std::vector<Metric> m = {
        {"serve.router.self_ms_per_step", ratio(a.routerSelfMs, steps), "ms"},
        {"serve.router.queue_wait_p95_ms", quantile(traced.queueWaitMs, 0.95),
         "ms"},
        {"serve.engine.step_ms_p50", quantile(a.engineStepMs, 0.50), "ms"},
        {"serve.engine.step_ms_p99", quantile(a.engineStepMs, 0.99), "ms"},
        {"serve.engine.self_ms_per_step", ratio(a.engineSelfMs, steps), "ms"},
        {"serve.engine.occupancy_mean", mean(traced.occupancy), "fraction"},
        {"serve.engine.admit_ms_p50", quantile(a.admitCallMs, 0.50), "ms"},
        {"serve.engine.admit_share", ratio(a.admitMs, a.routerStepMs),
         "fraction"},
    };

    // Kernels: memory-unit counters summed over lanes (or worker tiles);
    // the LSTM row comes from a standalone controller probe.
    const KernelCounters lstm = lstmCounters(w, kLstmProbeSteps, seed);
    const double rows = static_cast<double>(stack.rowsPerUnit());
    for (int k = 0; k < static_cast<int>(Kernel::NumKernels); ++k) {
        const Kernel kernel = static_cast<Kernel>(k);
        const bool isLstm = kernel == Kernel::Lstm;
        const KernelCounters &c = isLstm ? lstm : traced.kernels.at(kernel);
        const double per = isLstm ? static_cast<double>(kLstmProbeSteps)
                                  : laneSteps;
        const std::string key = "dnc.kernel." + kernelKey(kernel);
        m.push_back({key + ".ns_per_lane_step",
                     ratio(static_cast<double>(c.nanoseconds), per), "ns"});
        m.push_back({key + ".ops_per_lane_step",
                     ratio(static_cast<double>(c.totalOps()), per), "count"});
        m.push_back({key + ".skipped_row_frac",
                     ratio(static_cast<double>(c.skippedRows),
                           static_cast<double>(c.invocations) * rows),
                     "fraction"});
    }

    std::uint64_t archTotal = 0;
    double clockGhz = 1;
    predictStep(w, archTotal, clockGhz);
    m.insert(m.end(), {
        {"shard.transport.send_ms_per_step", ratio(a.sendMs, steps), "ms"},
        {"shard.transport.recv_wait_ms_per_step", ratio(a.recvMs, steps),
         "ms"},
        {"shard.wire.frames_per_lane_step",
         ratio(static_cast<double>(traced.wireFrames), laneSteps), "count"},
        {"shard.wire.bytes_per_lane_step",
         ratio(static_cast<double>(traced.wireBytes), laneSteps), "B"},
        {"shard.checkpoint.count", static_cast<double>(traced.checkpoints),
         "count"},
        {"shard.checkpoint.step_ms_p50",
         quantile(traced.checkpointStepMs, 0.50), "ms"},
        {"shard.recovery.count", static_cast<double>(traced.recoveries),
         "count"},
        {"shard.recovery.respawn_ms_p50", quantile(traced.respawnMs, 0.50),
         "ms"},
        {"shard.recovery.step_ms_p50", quantile(traced.recoveryStepMs, 0.50),
         "ms"},
        {"alloc.per_lane_step",
         ratio(static_cast<double>(plain.allocs),
               static_cast<double>(plain.laneSteps)),
         "count"},
        {"driver.late_p95_ms", quantile(traced.lateMs, 0.95), "ms"},
        {"trace.unattributed_frac",
         ratio(static_cast<double>(traced.windowNs) / 1e6 - a.topLevelMs,
               static_cast<double>(traced.windowNs) / 1e6),
         "fraction"},
        {"trace.overhead_frac",
         ratio(stepMsPerLaneStep(traced), stepMsPerLaneStep(plain)) - 1.0,
         "fraction"},
        {"arch.sim_cycles_per_step", static_cast<double>(archTotal),
         "cycles"},
    });
    return m;
}

/** Where the traced pass's wall time went, layer by layer. */
void
printAttribution(const SpanLog &log, const PassResult &traced)
{
    const Attribution a = attribute(log);
    const double window = static_cast<double>(traced.windowNs) / 1e6;
    const double routerStep = a.routerStepMs;
    std::printf("\nSelf time of each layer in the traced pass (%.0f ms, "
                "Router::step %.0f ms):\n",
                window, routerStep);
    const std::pair<const char *, double> rows[] = {
        {"serve.router", a.routerSelfMs},
        {"serve.engine", a.engineSelfMs},
        {"shard.transport.send", a.sendMs},
        {"shard.transport.recv_wait", a.recvMs},
        {"shard.recovery.respawn", a.respawnMs},
    };
    for (const auto &[name, ms] : rows)
        std::printf("  %-28s %10.1f ms %6.1f%% of Router::step\n", name, ms,
                    100.0 * ratio(ms, routerStep));
    std::printf("  %-28s %10.1f ms (outside Router::step)\n", "driver",
                a.driverMs);
    std::printf("  %-28s %10.1f ms %6.3f%% of the pass\n", "unattributed",
                window - a.topLevelMs,
                100.0 * ratio(window - a.topLevelMs, window));
}

/** The cycle model's per-kernel prediction beside the measured times. */
void
printPrediction(const Workload &w, const std::vector<Metric> &layer)
{
    std::uint64_t total = 0;
    double clockGhz = 1;
    const std::vector<PredictedKernel> predicted = predictStep(w, total,
                                                               clockGhz);
    std::printf("\nHiMA cycle model (arch, HimaEngine::simulateStep) vs "
                "measured host time, %s shape.\n"
                "The model is unvalidated: the repository holds no "
                "reference hardware numbers.\n",
                w.backend == Backend::Sharded ? "DNC-D 8-tile"
                                              : "DNC 16-tile");
    std::printf("%-20s %14s %14s %18s\n", "kernel", "model_cycles",
                "model_ns", "measured_ns/lane");
    for (const PredictedKernel &p : predicted) {
        const std::string key =
            "dnc.kernel." + kernelKey(p.kernel) + ".ns_per_lane_step";
        double measured = 0;
        for (const Metric &m : layer)
            if (m.name == key)
                measured = m.value;
        std::printf("%-20s %14llu %14.1f %18.1f\n", kernelKey(p.kernel).c_str(),
                    static_cast<unsigned long long>(p.cycles),
                    static_cast<double>(p.cycles) / clockGhz, measured);
    }
    std::printf("%-20s %14llu %14.1f\n\n", "step_total",
                static_cast<unsigned long long>(total),
                static_cast<double>(total) / clockGhz);
}

// --- self-test ---------------------------------------------------------

/** The counters a request set fixes, from one fresh stack. */
std::vector<std::uint64_t>
exactCounters(const Workload &w, std::uint64_t seed, double seconds)
{
    SpanLog log;
    ServingStack stack(w, log);
    const Schedule schedule = makeSchedule(w, seed, seconds);
    const PassResult p = runPass(stack, w, schedule, log);
    std::vector<std::uint64_t> out = {p.attempted, p.latencyMs.size(),
                                      p.laneSteps};
    for (int k = 0; k < static_cast<int>(Kernel::NumKernels); ++k) {
        const KernelCounters &c = p.kernels.at(static_cast<Kernel>(k));
        out.insert(out.end(), {c.invocations, c.macOps, c.elementOps,
                               c.specialOps, c.compareOps, c.extMemAccesses,
                               c.stateMemAccesses, c.skippedRows,
                               c.skippedOps});
    }
    return out;
}

/**
 * The counters fixed by the request set (requests, lane-steps, every
 * kernel's op and skipped-row counts) must repeat exactly across two
 * runs of one seed. Wire frames, checkpoints and allocations are not in
 * the set: batching, and so frame count, follows wall-clock timing.
 */
int
selftest()
{
    bool ok = true;
    for (const char *name : {"local_skim_open", "shard_open"}) {
        // A closed loop sends as many requests as time allows; serve a
        // fixed open-loop request set on the same stack instead.
        Workload w = *findWorkload(name);
        if (w.loop == Loop::Closed) {
            w.loop = Loop::Open;
            w.requestsPerSecond = 20;
        }
        const auto first = exactCounters(w, 7, 1.5);
        const auto second = exactCounters(w, 7, 1.5);
        const bool same = first == second && first[2] > 0;
        std::printf("%-20s requests=%llu lane_steps=%llu counters %s\n", name,
                    static_cast<unsigned long long>(first[0]),
                    static_cast<unsigned long long>(first[2]),
                    same ? "repeat exactly" : "DIFFER");
        ok = ok && same;
    }
    std::printf("selftest %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

int
run(const Args &args)
{
    const Workload *w = findWorkload(args.workload);
    if (w == nullptr) {
        std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    SpanLog log;

    // Set-up: build the serving stack several times, keep the last.
    std::vector<double> setupS;
    std::unique_ptr<ServingStack> stack;
    for (int i = 0; i < kSetupReps; ++i) {
        stack.reset();
        const std::uint64_t start = nowNs();
        stack = std::make_unique<ServingStack>(*w, log);
        setupS.push_back(static_cast<double>(nowNs() - start) / 1e9);
        noteResident();
    }

    // Warm-up on a disjoint request set: caches, allocator pools and
    // the engines' lazily sized scratch settle before anything is timed.
    runPass(*stack, *w, makeSchedule(*w, args.seed ^ kWarmupSalt, kWarmupS),
            log);

    // A traced run serves the schedule twice, untraced then traced, so
    // each pass gets half the time.
    const Schedule schedule = makeSchedule(
        *w, args.seed, args.trace ? args.seconds / 2 : args.seconds);
    const PassResult plain = runPass(*stack, *w, schedule, log);
    PassResult traced;
    if (args.trace) {
        log.reserve(std::size_t{1} << 20);
        log.enable(true);
        traced = runPass(*stack, *w, schedule, log);
        log.enable(false);
        if (!args.traceOut.empty() && !log.writeChromeTrace(args.traceOut))
            std::fprintf(stderr, "servebench: cannot write %s\n",
                         args.traceOut.c_str());
    }
    const PassResult &measured = args.trace ? traced : plain;

    const Check check = checkOutputs(*w, schedule, measured);
    const std::uint64_t failed =
        measured.rejected + measured.unfinished + check.mismatched;
    const bool correct = check.mismatched == 0 && check.replayed > 0;
    std::printf("workload %s seed %llu: %llu requests sent, %zu completed, "
                "%llu rejected, %llu unfinished; %llu replayed on the "
                "reference (%llu across a worker kill), %llu mismatched\n",
                w->name, static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(measured.attempted),
                measured.latencyMs.size(),
                static_cast<unsigned long long>(measured.rejected),
                static_cast<unsigned long long>(measured.unfinished),
                static_cast<unsigned long long>(check.replayed),
                static_cast<unsigned long long>(check.spanningKill),
                static_cast<unsigned long long>(check.mismatched));

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = perLayerMetrics(*w, *stack, plain, traced, log, args.seed);
        printAttribution(log, traced);
        printPrediction(*w, metrics);
    } else {
        const double served =
            1.0 - ratio(static_cast<double>(failed),
                        static_cast<double>(measured.attempted));
        metrics = endToEndMetrics(measured, quantile(setupS, 0.5), served);
    }
    stack.reset();
    printResult(correct, measured.attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace
} // namespace servebench

int
main(int argc, char **argv)
{
    servebench::Args args;
    if (!servebench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: servebench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--trace-out PATH]\n"
                     "       servebench --selftest\n");
        return 2;
    }
    return args.selftest ? servebench::selftest() : servebench::run(args);
}
