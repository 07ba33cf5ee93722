#include "inputs.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "trace/benchmark_profiles.hh"

namespace perfbench {

using namespace smartref;

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates shuffle (std::shuffle's draws are not portable). */
template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t &state)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix64(state) % i]);
}

std::string
stringArray(const std::vector<std::string> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ",\"" : "\"") + v[i] + "\"";
    return out + "]";
}

std::string
numberArray(const std::vector<std::uint32_t> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        out += i ? "," : "";
        out += std::to_string(v[i]);
    }
    return out + "]";
}

std::string
gridJson(const std::string &name, const std::vector<std::string> &configs,
         const std::vector<std::string> &benchmarks,
         const std::vector<std::uint32_t> &bits)
{
    return "{\"name\":\"" + name + "\",\"configs\":" + stringArray(configs) +
           ",\"benchmarks\":" + stringArray(benchmarks) +
           ",\"policies\":[\"smart\"],\"counterBits\":" + numberArray(bits) +
           ",\"retentionMs\":[0]}";
}

// The sweepd replay's sizing: the fill holds 2gb x the first
// kReplayBenchmarks profiles; each of them gets exactly one miss
// request (one width of kMissBits each), and there are kWarmPerMiss
// warm requests per miss. A fixed
// mix (rather than a per-request coin flip) keeps the work independent
// of the seed.
constexpr std::uint32_t kReplayWarmupMs = 1;
constexpr std::uint32_t kReplayMeasureMs = 1;
constexpr std::size_t kWarmPerMiss = 9;
constexpr std::size_t kReplayBenchmarks = 4;
constexpr std::size_t kBenchmarksPerWarmRequest = 2;
const std::vector<std::uint32_t> kFillBits = {3};
const std::vector<std::uint32_t> kMissBits = {1, 2, 4, 8};

} // namespace

const std::vector<std::string> &
workloads()
{
    static const std::vector<std::string> w = {"smoke-j1", "bits-fixed"};
    return w;
}

/*
 * Windows and repetitions are sized so a run measures about 40 s on a
 * 4-core host. The windows are short so that each job is a short timed
 * part (30 to 60 ms) repeated many times: the fastest of many short
 * parts lands in a quiet moment of a noisy host far more reliably than
 * the fastest of a few long repetitions. The run is long so that it
 * outlasts most of the host's busy phases (a minute or two, in which
 * even the fastest part runs slow). A 2gb job's construction is about
 * 1% of its time at 2 + 4 ms, so the work is still nearly all
 * simulation.
 */
SimInput
simInput(const std::string &workload, std::uint64_t seed)
{
    SimInput in;
    in.opts.jobs = 1;
    in.opts.baseSeed = seed;
    if (workload == "smoke-j1") {
        // The predefined smoke grid, spelled out as a grid file. (The
        // golden check runs the default windows once more, untimed.)
        in.gridJson = gridJson("smoke", {"2gb", "3d64"},
                               {"mummer", "gcc", "radix"}, {3});
        in.opts.warmup = 2 * kMillisecond;
        in.opts.measure = 4 * kMillisecond;
        in.repetitions = 90;
    } else if (workload == "bits-fixed") {
        in.gridJson = gridJson("bits-fixed", {"2gb"}, {"mummer", "radix"},
                               {1, 2, 3, 4, 8});
        in.opts.seedMode = SeedMode::Fixed;
        in.opts.warmup = 2 * kMillisecond;
        in.opts.measure = 4 * kMillisecond;
        in.repetitions = 75;
    } else {
        throw std::invalid_argument("not a simulation workload: " +
                                    workload);
    }
    return in;
}

SimInput
serverInput(std::uint64_t seed)
{
    SimInput in;
    in.gridJson = gridJson("server-512gb", {"512gb"}, {"mummer"}, {3});
    in.opts.jobs = 1;
    in.opts.baseSeed = seed;
    // Each window is one (partial) 4 ms shard epoch.
    in.opts.warmup = 1 * kMillisecond;
    in.opts.measure = 1 * kMillisecond;
    in.opts.shardJobs = 2;
    return in;
}

ReplayInput
replayInput(std::uint64_t seed)
{
    const std::string config = "2gb";
    std::vector<std::string> benchmarks;
    for (const auto &p : allProfiles())
        if (benchmarks.size() < kReplayBenchmarks)
            benchmarks.push_back(p.name);

    ReplayInput in;
    in.opts.jobs = 1;
    in.opts.baseSeed = seed;
    in.opts.warmup = kReplayWarmupMs * kMillisecond;
    in.opts.measure = kReplayMeasureMs * kMillisecond;
    in.fillGridJson = gridJson("replay-fill", {config}, benchmarks, kFillBits);

    std::uint64_t state = seed ^ 0x5265706c61795761ULL;
    // One miss per benchmark, in seeded order, each with a counter width
    // the fill does not hold. Every new width is used once, so the
    // simulation the misses cost hardly depends on the seed.
    std::vector<std::size_t> misses(benchmarks.size());
    for (std::size_t b = 0; b < misses.size(); ++b)
        misses[b] = b;
    shuffle(misses, state);
    std::vector<std::uint32_t> missBits = kMissBits;
    shuffle(missBits, state);
    std::vector<char> isMiss(misses.size() * (1 + kWarmPerMiss), 0);
    std::fill(isMiss.begin(), isMiss.begin() + misses.size(), 1);
    shuffle(isMiss, state);

    const auto requestText = [&](const std::string &grid, std::size_t i) {
        return "{\"grid\":" + grid +
               ",\"warmupMs\":" + std::to_string(kReplayWarmupMs) +
               ",\"measureMs\":" + std::to_string(kReplayMeasureMs) +
               ",\"seed\":\"" + std::to_string(seed) +
               "\",\"traceId\":\"replay-" + std::to_string(i) + "\"}";
    };
    std::size_t nextMiss = 0;
    std::vector<std::size_t> order(benchmarks.size());
    for (std::size_t i = 0; i < isMiss.size(); ++i) {
        ReplayRequest r;
        char stem[32];
        std::snprintf(stem, sizeof(stem), "req-%05zu", i);
        r.stem = stem;
        r.miss = isMiss[i] != 0;
        std::string grid;
        if (r.miss) {
            std::vector<std::uint32_t> bits = kFillBits;
            bits.push_back(missBits[nextMiss]);
            grid = gridJson("replay", {config},
                            {benchmarks[misses[nextMiss++]]}, bits);
        } else {
            for (std::size_t b = 0; b < order.size(); ++b)
                order[b] = b;
            shuffle(order, state);
            order.resize(kBenchmarksPerWarmRequest);
            std::sort(order.begin(), order.end());
            std::vector<std::string> chosen;
            for (std::size_t b : order)
                chosen.push_back(benchmarks[b]);
            order.resize(benchmarks.size());
            grid = gridJson("replay", {config}, chosen, kFillBits);
        }
        r.text = requestText(grid, i);
        in.requests.push_back(std::move(r));
    }
    return in;
}

std::string
describeJobs(const SweepGrid &grid, const SweepRunOptions &opts)
{
    std::ostringstream os;
    for (const SweepJob &j : expandGrid(grid, opts.baseSeed, opts.seedMode))
        os << pointKey(j.point) << "@" << j.seed << ";";
    return os.str();
}

} // namespace perfbench
