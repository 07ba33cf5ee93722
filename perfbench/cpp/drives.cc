#include "drives.hh"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/counter_array.hh"
#include "core/stagger_scheduler.hh"
#include "dram/dram_config.hh"
#include "dram/refresh_parallelism.hh"
#include "harness/result_cache.hh"
#include "harness/sharded.hh"
#include "harness/sweepd_service.hh"
#include "harness/system.hh"
#include "trace/benchmark_profiles.hh"
#include "trace/workload_model.hh"

namespace perfbench {

using namespace smartref;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Fixed window of the generator / controller drives. */
constexpr Tick kDriveWindow = 32 * kMillisecond;

struct Access
{
    Tick when;
    Addr addr;
    bool write;
};

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
llcProbeMs()
{
    // 8 MiB of 64-byte lines linked into one seeded random cycle
    // (Sattolo): every step misses L1/L2 and the TLB. mmap keeps the buffer out of malloc, whose adaptive
    // mmap threshold would otherwise change how the simulator's own
    // large arrays are allocated after the first probe.
    constexpr std::size_t kLines = (8u << 20) / 64;
    constexpr std::size_t kSteps = 1u << 19;
    struct Line
    {
        std::uint32_t next;
        std::uint32_t pad[15];
    };
    void *mem = ::mmap(nullptr, kLines * sizeof(Line),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (mem == MAP_FAILED)
        throw std::runtime_error("llc probe: mmap failed");
    Line *lines = static_cast<Line *>(mem);
    for (std::size_t i = 0; i < kLines; ++i)
        lines[i].next = static_cast<std::uint32_t>(i);
    std::uint64_t state = 0x4c4c4350726f6265ULL;
    for (std::size_t i = kLines - 1; i > 0; --i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(lines[i].next, lines[(state >> 33) % i].next);
    }
    std::uint32_t p = 0;
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < kSteps; ++s)
        p = lines[p].next;
    const double ms = secondsSince(t0) * 1e3;
    ::munmap(mem, kLines * sizeof(Line));
    if (p >= kLines) // keeps the chase observable
        throw std::logic_error("llc probe: corrupt cycle");
    return ms;
}

void
driveGeneratorAndController(const SweepJob &job, const SweepRunOptions &opts,
                            SpanRecorder &rec, GeneratorDrive &gen,
                            ControllerDrive &ctrl)
{
    DramConfig dram = dramConfigByName(job.point.config);
    if (isThreeDConfigName(job.point.config))
        throw std::invalid_argument("generator drive needs a conventional "
                                    "config, got " + job.point.config);
    if (job.point.retentionMs > 0)
        dram.timing.retention = Tick(job.point.retentionMs) * kMillisecond;
    dram.parallelism = parallelismFromString(job.point.parallelism);
    const double scale = absRowScaleFor(dram.org);
    // A multi-channel job drives its channel 0, seeded as the sharded
    // runner seeds it.
    const std::uint64_t seed =
        dram.channels > 1 ? shardChannelSeed(job.seed, 0) : job.seed;
    dram.channels = 1;
    const auto params =
        conventionalParams(findProfile(job.point.benchmark), dram, scale,
                           seed);

    std::vector<Access> stream;
    {
        ScopedSpan span(&rec, "trace.generate", job.index + 1);
        const auto t0 = Clock::now();
        EventQueue eq;
        StatGroup root("drive");
        std::vector<std::unique_ptr<WorkloadModel>> models;
        for (const auto &wp : params) {
            models.push_back(std::make_unique<WorkloadModel>(
                wp, dram.org.rowBytes(),
                [&stream, &eq](Addr addr, bool write) {
                    stream.push_back({eq.now(), addr, write});
                },
                eq, &root));
        }
        for (auto &m : models)
            m->start();
        eq.runUntil(kDriveWindow);
        gen.seconds = secondsSince(t0);
        gen.accesses = stream.size();
    }

    SystemConfig cfg;
    cfg.dram = dram;
    cfg.policy = policyFromString(job.point.policy);
    cfg.smart.counterBits = job.point.counterBits;
    cfg.smart.segments = opts.segments;
    cfg.smart.queueCapacity = opts.segments;
    cfg.smart.autoReconfigure = opts.autoReconfigure;
    cfg.smart.sparseCounters = opts.sparseCounters;
    ScopedSpan span(&rec, "ctrl.replay", job.index + 1);
    const auto t0 = Clock::now();
    System sys(cfg);
    EventQueue &eq = sys.eventQueue();
    for (const Access &a : stream) {
        eq.runUntil(a.when);
        sys.controller().access(a.addr, a.write);
    }
    eq.runUntil(kDriveWindow);
    sys.dram().finalize();
    ctrl.seconds = secondsSince(t0);
    ctrl.demandAccesses =
        sys.controller().demandReads() + sys.controller().demandWrites();
    ctrl.refreshes = sys.dram().totalRefreshes();
    ctrl.rowHitFrac = sys.controller().rowHitRate();
}

WalkDrive
driveWalk(SpanRecorder &rec)
{
    constexpr std::uint32_t kSegments = 8;
    const DramConfig server = dramConfigByName("512gb");
    WalkDrive w;
    w.counters = server.totalRowsAllChannels();
    CounterArray counters(w.counters, 3, kSegments);
    StaggerScheduler stagger(counters, kSegments, server.timing.retention);
    {
        ScopedSpan span(&rec, "core.walk_init");
        stagger.initialiseStaggered();
    }
    std::uint64_t expired = 0;
    const std::uint64_t steps = w.counters / kSegments;
    ScopedSpan span(&rec, "core.walk");
    const auto t0 = Clock::now();
    for (std::uint64_t s = 0; s < steps; ++s)
        stagger.step([&expired](std::uint64_t) { ++expired; });
    w.seconds = secondsSince(t0);
    w.steps = stagger.stepsExecuted();
    w.sramReads = counters.sramReads();
    if (expired == 0)
        throw std::logic_error("walk drive: a full period expired nothing");
    return w;
}

CacheDrive
driveResultCache(const std::vector<SweepJobResult> &results,
                 const SweepRunOptions &opts, const std::string &dir,
                 SpanRecorder &rec, std::size_t minOps)
{
    CacheDrive d;
    if (results.empty())
        return d;
    ResultCache cache(dir);
    std::vector<ResultCacheKey> keys;
    for (const auto &r : results)
        keys.push_back(resultCacheKey(r.job, opts));
    const std::size_t rounds = (minOps + results.size() - 1) / results.size();
    std::vector<double> storeUs, lookupUs;
    {
        ScopedSpan span(&rec, "harness.cache_store");
        for (std::size_t k = 0; k < rounds; ++k)
            for (std::size_t i = 0; i < results.size(); ++i) {
                const auto t0 = Clock::now();
                cache.store(keys[i], results[i].job, results[i]);
                storeUs.push_back(secondsSince(t0) * 1e6);
            }
    }
    {
        ScopedSpan span(&rec, "harness.cache_lookup");
        for (std::size_t k = 0; k < rounds; ++k)
            for (std::size_t i = 0; i < results.size(); ++i) {
                SweepJobResult out;
                const auto t0 = Clock::now();
                const bool hit = cache.lookup(keys[i], out);
                lookupUs.push_back(secondsSince(t0) * 1e6);
                if (!hit || ResultCache::comparisonJson(out.comparison) !=
                                ResultCache::comparisonJson(
                                    results[i].comparison))
                    ++d.mismatches;
            }
    }
    d.storeUsMedian = median(storeUs);
    d.lookupUsMedian = median(lookupUs);
    return d;
}

double
driveHealthMs(const std::string &queueDir, SpanRecorder &rec)
{
    SweepdConfig cfg;
    cfg.queueDir = queueDir;
    cfg.cacheDir = (std::filesystem::path(queueDir) / "cache").string();
    SweepdService service(cfg);
    std::vector<double> ms;
    ScopedSpan span(&rec, "harness.sweepd_health");
    for (int i = 0; i < 50; ++i) {
        const auto t0 = Clock::now();
        service.writeHealth();
        ms.push_back(secondsSince(t0) * 1e3);
    }
    return median(ms);
}

double
driveParseUs(const std::vector<std::string> &texts,
             const SweepRunOptions &defaults, SpanRecorder &rec)
{
    std::vector<double> us;
    ScopedSpan span(&rec, "harness.request_parse");
    for (std::size_t i = 0; i < std::max<std::size_t>(200, texts.size());
         ++i) {
        const auto t0 = Clock::now();
        const SweepdRequest req =
            parseSweepdRequest(texts[i % texts.size()], defaults);
        us.push_back(secondsSince(t0) * 1e6);
        if (req.grid.configs.empty())
            throw std::logic_error("parse drive: empty grid");
    }
    return median(us);
}

} // namespace perfbench
