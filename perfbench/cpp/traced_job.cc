#include "traced_job.hh"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "dram/dram_config.hh"
#include "dram/refresh_parallelism.hh"
#include "harness/experiment.hh"
#include "harness/sharded.hh"
#include "harness/system.hh"
#include "harness/threed_system.hh"
#include "trace/benchmark_profiles.hh"

namespace perfbench {

using namespace smartref;

namespace {

/** Everything one side (baseline or policy) of a job needs. */
struct Side
{
    const BenchmarkProfile &profile;
    const DramConfig &dram;
    PolicyKind policy;
    SmartRefreshConfig smart;
    const SweepRunOptions &opts;
    std::uint64_t seed;
    std::uint64_t id;
};

double
percentileNs(const Histogram &h, double p)
{
    const double v = h.percentile(p);
    return std::isnan(v) ? 0.0 : v / static_cast<double>(kNanosecond);
}

/** Same reduction as the experiment runner's; the caller's bit-for-bit
 *  comparison against runSweepJob() keeps the two in step. */
RunResult
reduceRun(const Side &s, const EnergySnapshot &delta,
          std::size_t maxBacklog, const Histogram &latency)
{
    RunResult r;
    r.benchmark = s.profile.name;
    r.suite = s.profile.suite;
    r.policy = toString(s.policy);
    r.simSeconds =
        static_cast<double>(delta.tick) / static_cast<double>(kSecond);
    r.refreshesPerSec =
        r.simSeconds > 0.0
            ? static_cast<double>(delta.refreshes) / r.simSeconds
            : 0.0;
    r.refreshEnergyJ = delta.refreshEnergy;
    r.totalEnergyJ = delta.totalEnergy();
    r.overheadJ = delta.overheadEnergy;
    r.latencySumSec = delta.latencySumTicks / static_cast<double>(kSecond);
    r.demandAccesses = delta.demandAccesses;
    r.avgLatencyNs =
        delta.demandAccesses > 0
            ? delta.latencySumTicks /
                  static_cast<double>(delta.demandAccesses) /
                  static_cast<double>(kNanosecond)
            : 0.0;
    r.violations = delta.violations;
    r.maxRefreshBacklog = maxBacklog;
    r.demandBlockedByRefreshTicks = delta.demandBlockedTicks;
    r.refreshStallsAvoided = delta.refreshStallsAvoided;
    r.subarrayConflicts = delta.subarrayConflicts;
    r.latencyP50Ns = percentileNs(latency, 0.50);
    r.latencyP95Ns = percentileNs(latency, 0.95);
    r.latencyP99Ns = percentileNs(latency, 0.99);
    return r;
}

/**
 * The shared warmup / snapshot / measure / snapshot / final-check
 * sequence. `Sys` provides run(), and the two lambdas capture a
 * snapshot and run the final retention check.
 */
template <typename Sys, typename Snap, typename Final>
EnergySnapshot
runWindows(SpanRecorder &rec, const Side &s, Sys &sys, Snap snapshot,
           Final finalCheck, TracedJobTotals &totals)
{
    {
        ScopedSpan span(&rec, "sim.run_warmup", s.id);
        sys.run(s.opts.warmup);
    }
    EnergySnapshot atWarm;
    {
        ScopedSpan span(&rec, "dram.snapshot", s.id);
        atWarm = snapshot();
    }
    {
        ScopedSpan span(&rec, "sim.run_measure", s.id);
        sys.run(s.opts.measure);
    }
    EnergySnapshot atEnd;
    {
        ScopedSpan span(&rec, "dram.snapshot", s.id);
        atEnd = snapshot();
    }
    std::uint64_t stale = 0;
    {
        ScopedSpan span(&rec, "dram.final_check", s.id);
        stale = finalCheck();
    }
    totals.refreshes += atEnd.refreshes;
    EnergySnapshot delta = atEnd - atWarm;
    delta.violations += stale;
    return delta;
}

RunResult
runConventionalSide(SpanRecorder &rec, const Side &s,
                    TracedJobTotals &totals)
{
    SystemConfig cfg;
    cfg.dram = s.dram;
    cfg.policy = s.policy;
    cfg.smart = s.smart;
    std::unique_ptr<System> sys;
    {
        ScopedSpan span(&rec, "harness.build", s.id);
        sys = std::make_unique<System>(cfg);
        for (const auto &wp :
             conventionalParams(s.profile, s.dram,
                                absRowScaleFor(s.dram.org), s.seed))
            sys->addWorkload(wp);
    }
    const EnergySnapshot delta = runWindows(
        rec, s, *sys, [&] { return captureSnapshot(*sys); },
        [&] {
            return sys->dram().retention().finalCheck(
                sys->eventQueue().now());
        },
        totals);
    RunResult r = reduceRun(s, delta, sys->controller().maxRefreshBacklog(),
                            sys->controller().latencyHistogram());
    r.eventsExecuted = sys->eventQueue().executed();
    if (const SmartRefreshPolicy *p = sys->smartPolicy())
        totals.residentCounterBytes =
            std::max(totals.residentCounterBytes,
                     p->counters().residentCounterBytes());
    ScopedSpan span(&rec, "harness.teardown", s.id);
    sys.reset();
    return r;
}

RunResult
runShardedSide(SpanRecorder &rec, const Side &s, TracedJobTotals &totals)
{
    SystemConfig cfg;
    cfg.dram = s.dram;
    cfg.policy = s.policy;
    cfg.smart = s.smart;
    std::unique_ptr<ShardedSystem> sys;
    {
        ScopedSpan span(&rec, "harness.build", s.id);
        sys = std::make_unique<ShardedSystem>(cfg, s.opts.shardJobs);
        DramConfig chDram = s.dram;
        chDram.channels = 1;
        const double scale = absRowScaleFor(s.dram.org);
        for (std::uint32_t c = 0; c < s.dram.channels; ++c)
            for (const auto &wp :
                 conventionalParams(s.profile, chDram, scale,
                                    shardChannelSeed(s.seed, c)))
                sys->channel(c).addWorkload(wp);
    }
    const EnergySnapshot delta = runWindows(
        rec, s, *sys, [&] { return sys->captureMergedSnapshot(); },
        [&] { return sys->finalCheck(); }, totals);
    StatGroup scratch("sharded");
    const Histogram &shape =
        sys->channel(0).controller().latencyHistogram();
    Histogram latency(&scratch, "latency", "merged demand latency",
                      shape.bucketLo(), shape.bucketHi(),
                      shape.numBuckets());
    {
        ScopedSpan span(&rec, "harness.shard_merge", s.id);
        sys->mergeObservers();
        sys->mergeLatency(latency);
    }
    RunResult r =
        reduceRun(s, delta, sys->maxRefreshBacklog(), latency);
    r.eventsExecuted = sys->eventsExecuted();
    totals.residentCounterBytes = std::max(totals.residentCounterBytes,
                                           sys->residentCounterBytes());
    ScopedSpan span(&rec, "harness.teardown", s.id);
    sys.reset();
    return r;
}

RunResult
runThreeDSide(SpanRecorder &rec, const Side &s, TracedJobTotals &totals)
{
    ThreeDSystemConfig cfg;
    cfg.threeD = s.dram;
    cfg.threeDPolicy = s.policy;
    cfg.smart = s.smart;
    std::unique_ptr<ThreeDSystem> sys;
    {
        ScopedSpan span(&rec, "harness.build", s.id);
        sys = std::make_unique<ThreeDSystem>(cfg);
        for (const auto &wp : threeDParams(s.profile, s.dram, s.seed))
            sys->addWorkload(wp);
    }
    const EnergySnapshot delta = runWindows(
        rec, s, *sys, [&] { return captureSnapshot(*sys); },
        [&] {
            return sys->threeDDram().retention().finalCheck(
                sys->eventQueue().now());
        },
        totals);
    RunResult r =
        reduceRun(s, delta, sys->threeDController().maxRefreshBacklog(),
                  sys->threeDController().latencyHistogram());
    r.eventsExecuted = sys->eventQueue().executed();
    totals.dramCacheHits += sys->cache().hits();
    totals.dramCacheMisses += sys->cache().misses();
    if (const SmartRefreshPolicy *p = sys->smartPolicy())
        totals.residentCounterBytes =
            std::max(totals.residentCounterBytes,
                     p->counters().residentCounterBytes());
    ScopedSpan span(&rec, "harness.teardown", s.id);
    sys.reset();
    return r;
}

} // namespace

SweepJobResult
runTracedJob(const SweepJob &job, const SweepRunOptions &opts,
             SpanRecorder &rec, TracedJobTotals &totals)
{
    const std::uint64_t id = job.index + 1;
    ScopedSpan jobSpan(&rec, "harness.job", id);
    const auto start = std::chrono::steady_clock::now();

    DramConfig dram = dramConfigByName(job.point.config);
    if (job.point.retentionMs > 0)
        dram.timing.retention = Tick(job.point.retentionMs) * kMillisecond;
    dram.parallelism = parallelismFromString(job.point.parallelism);
    const BenchmarkProfile &profile = findProfile(job.point.benchmark);
    const PolicyKind policy = policyFromString(job.point.policy);
    if (policy == PolicyKind::RetentionAware)
        throw std::runtime_error(
            "traced jobs do not decompose the retention-aware policy");

    SmartRefreshConfig smart;
    smart.counterBits = job.point.counterBits;
    smart.segments = opts.segments;
    smart.queueCapacity = opts.segments;
    smart.autoReconfigure = opts.autoReconfigure;
    smart.sparseCounters = opts.sparseCounters;

    SweepJobResult result;
    result.job = job;
    result.comparison.benchmark = profile.name;
    result.comparison.suite = profile.suite;
    const bool threeD = isThreeDConfigName(job.point.config);
    const auto side = [&](PolicyKind kind) {
        const Side s{profile, dram, kind, smart, opts, job.seed, id};
        if (threeD)
            return runThreeDSide(rec, s, totals);
        if (dram.channels > 1)
            return runShardedSide(rec, s, totals);
        return runConventionalSide(rec, s, totals);
    };
    {
        ScopedSpan span(&rec, "harness.baseline", id);
        result.comparison.baseline = side(PolicyKind::Cbr);
    }
    {
        ScopedSpan span(&rec, "harness.policy", id);
        result.comparison.smart = side(policy);
    }
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (threeD)
        totals.threeDSeconds += result.wallSeconds;
    totals.events += result.comparison.baseline.eventsExecuted +
                     result.comparison.smart.eventsExecuted;
    return result;
}

} // namespace perfbench
