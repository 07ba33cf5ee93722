/**
 * @file
 * Server-scale microbenchmark: per-channel event-engine sharding and
 * the hierarchical sparse counter array.
 *
 * Three measurements, one JSON artifact (BENCH_channel_scale.json):
 *
 *  - events/s vs channel count: the same per-channel workload run at
 *    1/2/4/8 channels through ShardedSystem, with as many shard
 *    workers as the host offers. The headline number is events/s at
 *    8 channels over the 1-channel serial run. The >= 3x gate is only
 *    enforced when the host has >= 4 hardware threads — sharding
 *    cannot beat physics on a 1-core container — but the numbers are
 *    always reported (CI runs on multi-core hosts). Each point is the
 *    best of five 24 ms windows, and the rounds visit every channel
 *    count in turn, so the 1- and 8-channel points see the same host
 *    phases (a busy neighbour slowing only one of them skewed the
 *    ratio when each point ran its repeats back to back).
 *
 *  - walk steps saved on an idle-heavy profile: a dense and a sparse
 *    smart-refresh run over the same near-idle workload; the sparse
 *    walk skips pristine segments in O(1), so its per-counter SRAM
 *    reads collapse. Deterministic, gated at >= 10x everywhere.
 *
 *  - peak RSS per simulated GB: a 512 GB / 16-channel system with
 *    sparse counters constructs and runs a short window; the artifact
 *    records the process peak RSS, the modeled resident counter
 *    bytes, and bytes per simulated row (the CI server-smoke job
 *    applies the absolute ceiling).
 *
 * Usage: micro_channel_scale [BENCH_channel_scale.json]
 * Exit code 1 when an enforced gate fails.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/smart_refresh.hh"
#include "harness/sharded.hh"
#include "sim/thread_pool.hh"

using namespace smartref;

namespace {

/** One channel-count sample of the scaling curve. */
struct ScalePoint
{
    std::uint32_t channels;
    unsigned shardJobs;
    std::uint64_t events;
    double wallSeconds;

    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(events) / wallSeconds
                   : 0.0;
    }
};

/** Run `channels` channels of the 128 GB preset's per-channel module. */
ScalePoint
runScalePoint(std::uint32_t channels, unsigned shardJobs, Tick warmup,
              Tick measure)
{
    DramConfig dram = dramConfigByName("128gb");
    dram.channels = channels;

    SystemConfig cfg;
    cfg.dram = dram;
    cfg.policy = PolicyKind::Smart;
    cfg.smart.counterBits = 3;
    cfg.smart.segments = 8;
    cfg.smart.queueCapacity = 8;

    ShardedSystem sys(cfg, shardJobs);
    DramConfig chDram = dram;
    chDram.channels = 1;
    const BenchmarkProfile &profile = findProfile("mummer");
    for (std::uint32_t c = 0; c < channels; ++c) {
        for (const auto &wp : conventionalParams(
                 profile, chDram, 1.0, shardChannelSeed(42, c)))
            sys.channel(c).addWorkload(wp);
    }

    sys.run(warmup);
    const std::uint64_t before = sys.eventsExecuted();
    const auto t0 = std::chrono::steady_clock::now();
    sys.run(measure);
    const auto t1 = std::chrono::steady_clock::now();

    ScalePoint p;
    p.channels = channels;
    p.shardJobs = shardJobs;
    p.events = sys.eventsExecuted() - before;
    p.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    return p;
}

/** Walk/SRAM counters of one idle-heavy smart-refresh run. */
struct WalkCost
{
    std::uint64_t sramReads;
    std::uint64_t summaryReads;
    std::uint64_t touchesSkipped;
};

WalkCost
runIdleWalk(bool sparse)
{
    SystemConfig cfg;
    // One channel of the 128 GB preset: 1 M counters = 32 sparse
    // chunks, so a near-idle footprint leaves most chunks pristine.
    // (The 2 GB module has only 4 chunks — its best case is 4x, below
    // the gate by construction, not by behaviour.)
    DramConfig dram = dramConfigByName("128gb");
    dram.channels = 1;
    cfg.dram = dram;
    cfg.policy = PolicyKind::Smart;
    cfg.smart.counterBits = 3;
    cfg.smart.segments = 8;
    cfg.smart.queueCapacity = 8;
    // Keep the self-configuration circuit out of the measurement: it
    // would disable refresh on this near-idle profile and the walks
    // being compared would stop.
    cfg.smart.autoReconfigure = false;
    cfg.smart.sparseCounters = sparse;

    System sys(cfg);
    sys.addWorkload(idleParams(cfg.dram, 42));
    // Two full 64 ms walk periods: ample pristine-segment skipping.
    sys.run(128 * kMillisecond);

    const CounterArray &counters = sys.smartPolicy()->counters();
    return {counters.sramReads(), counters.summaryReads(),
            counters.touchesSkipped()};
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out =
        argc > 1 ? argv[1] : "BENCH_channel_scale.json";
    const unsigned hostThreads = ThreadPool::hardwareThreads();

    // --- events/s vs channel count -------------------------------
    const Tick warmup = 2 * kMillisecond;
    const Tick measure = 24 * kMillisecond;
    constexpr int kRounds = 5;
    const std::uint32_t channelCounts[] = {1u, 2u, 4u, 8u};
    std::vector<ScalePoint> points;
    for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < std::size(channelCounts); ++i) {
            const std::uint32_t channels = channelCounts[i];
            const unsigned jobs =
                std::min<unsigned>(channels, hostThreads);
            const ScalePoint p =
                runScalePoint(channels, jobs, warmup, measure);
            if (round == 0)
                points.push_back(p);
            else if (p.eventsPerSec() > points[i].eventsPerSec())
                points[i] = p;
        }
    }
    for (const ScalePoint &best : points) {
        std::cout << best.channels << " channel(s), -j"
                  << best.shardJobs << ": " << best.eventsPerSec()
                  << " events/s (" << best.events << " events in "
                  << best.wallSeconds << " s, best of " << kRounds
                  << ")\n";
    }
    const double speedup8 =
        points.back().eventsPerSec() / points.front().eventsPerSec();
    const bool gateEnforced = hostThreads >= 4;
    std::cout << "events/s at 8 channels vs 1-channel serial: "
              << speedup8 << "x (gate 3x "
              << (gateEnforced ? "enforced" : "informational on ")
              << (gateEnforced ? "" : std::to_string(hostThreads) +
                                          "-thread host")
              << ")\n";

    // --- idle-heavy walk reduction -------------------------------
    const WalkCost dense = runIdleWalk(false);
    const WalkCost sparse = runIdleWalk(true);
    const double walkReduction =
        static_cast<double>(dense.sramReads) /
        static_cast<double>(std::max<std::uint64_t>(1,
                                                    sparse.sramReads));
    std::cout << "idle walk SRAM reads: dense " << dense.sramReads
              << ", sparse " << sparse.sramReads << " (+ "
              << sparse.summaryReads << " summary reads, "
              << sparse.touchesSkipped << " touches skipped) -> "
              << walkReduction << "x fewer\n";

    // --- 512 GB construction + peak RSS --------------------------
    DramConfig server = dramConfigByName("512gb");
    std::uint64_t residentCounterBytes = 0;
    {
        SystemConfig cfg;
        cfg.dram = server;
        cfg.policy = PolicyKind::Smart;
        cfg.smart.counterBits = 3;
        cfg.smart.segments = 8;
        cfg.smart.queueCapacity = 8;
        cfg.smart.sparseCounters = true;

        ShardedSystem sys(cfg, std::min<unsigned>(server.channels,
                                                  hostThreads));
        DramConfig chDram = server;
        chDram.channels = 1;
        for (std::uint32_t c = 0; c < server.channels; ++c) {
            sys.channel(c).addWorkload(
                idleParams(chDram, shardChannelSeed(42, c)));
        }
        sys.run(1 * kMillisecond);
        residentCounterBytes = sys.residentCounterBytes();
    }
    const double simGB =
        static_cast<double>(server.totalCapacityBytes()) /
        (1024.0 * 1024.0 * 1024.0);
    const std::uint64_t peakRss = currentPeakRssBytes();
    const double rssPerSimGB =
        static_cast<double>(peakRss) / simGB;
    const double bytesPerRow =
        static_cast<double>(residentCounterBytes) /
        static_cast<double>(server.totalRowsAllChannels());
    std::cout << "512gb: " << simGB << " simulated GB, peak RSS "
              << peakRss << " B (" << rssPerSimGB
              << " B/GB), resident counter bytes "
              << residentCounterBytes << " (" << bytesPerRow
              << " B/row)\n";

    RunMeta meta;
    meta.schema = "smartref-bench-channel_scale-v1";
    // BENCH artifacts are outside the byte-identity contract, so the
    // host-dependent peak RSS may ride in the meta block here.
    meta.peakRssBytes = peakRss;
    meta.bytesPerSimulatedRow = bytesPerRow;

    std::ofstream os(out);
    os.precision(6);
    os << "{\n"
       << "  \"bench\": \"channel_scale\",\n"
       << "  \"meta\": " << metaJson(meta) << ",\n"
       << "  \"hostThreads\": " << hostThreads << ",\n"
       << "  \"events\": {\n"
       << "    \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ScalePoint &p = points[i];
        os << "      {\"channels\": " << p.channels
           << ", \"shardJobs\": " << p.shardJobs
           << ", \"events\": " << p.events
           << ", \"wallSeconds\": " << p.wallSeconds
           << ", \"eventsPerSec\": " << p.eventsPerSec() << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "    ],\n"
       << "    \"speedup8\": " << speedup8 << ",\n"
       << "    \"gate\": 3.0,\n"
       << "    \"gateEnforced\": " << (gateEnforced ? "true" : "false")
       << "\n"
       << "  },\n"
       << "  \"walk\": {\n"
       << "    \"denseSramReads\": " << dense.sramReads << ",\n"
       << "    \"sparseSramReads\": " << sparse.sramReads << ",\n"
       << "    \"sparseSummaryReads\": " << sparse.summaryReads << ",\n"
       << "    \"touchesSkipped\": " << sparse.touchesSkipped << ",\n"
       << "    \"walkStepReduction\": " << walkReduction << ",\n"
       << "    \"gate\": 10.0\n"
       << "  },\n"
       << "  \"memory\": {\n"
       << "    \"config\": \"512gb\",\n"
       << "    \"channels\": " << server.channels << ",\n"
       << "    \"simulatedBytes\": " << server.totalCapacityBytes()
       << ",\n"
       << "    \"peakRssBytes\": " << peakRss << ",\n"
       << "    \"residentCounterBytes\": " << residentCounterBytes
       << ",\n"
       << "    \"bytesPerSimulatedRow\": " << bytesPerRow << ",\n"
       << "    \"rssPerSimulatedGB\": " << rssPerSimGB << "\n"
       << "  }\n"
       << "}\n";
    std::cout << "wrote " << out << "\n";

    bool failed = false;
    if (gateEnforced && speedup8 < 3.0) {
        std::cerr << "GATE FAIL: events/s speedup at 8 channels "
                  << speedup8 << " < 3.0\n";
        failed = true;
    }
    if (walkReduction < 10.0) {
        std::cerr << "GATE FAIL: idle walk reduction " << walkReduction
                  << " < 10.0\n";
        failed = true;
    }
    return failed ? 1 : 0;
}
