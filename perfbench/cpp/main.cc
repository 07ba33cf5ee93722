/**
 * @file
 * smartref_perfbench: the repository benchmark's binary.
 *
 *   smartref_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   smartref_perfbench --self-test
 *   smartref_perfbench --list-metrics
 *
 * Runs one workload per process (so peak RSS belongs to it) through the
 * entry points smartref_sweep uses: runSweep + writeSweepJson/
 * writeSweepCsv. It checks every output and prints one JSON result as
 * the last line of stdout. With --trace 1 it also runs the workload
 * decomposed into spans, drives single modules (and the sweepd path
 * through SweepdService::claimNext/processOne) on their own, and
 * reports per-layer metrics instead of the end-to-end ones. Run it from the repository
 * root; scratch files go under .bench_work/ and are removed at exit,
 * except the span file of a traced run.
 */

#include <sched.h>
#include <time.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "drives.hh"
#include "dram/dram_config.hh"
#include "harness/result_cache.hh"
#include "harness/statdiff.hh"
#include "harness/sweep.hh"
#include "harness/sweepd_service.hh"
#include "inputs.hh"
#include "sim/metrics.hh"
#include "sim/mini_json.hh"
#include "spans.hh"
#include "traced_job.hh"

namespace fs = std::filesystem;
using namespace smartref;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.pool_busy_frac", "fraction"},
    {"sim.pool_idle_waits", "count"},
    {"sim.pool_steals", "count"},
    {"sim.self_s", "s"},
    {"trace.gen_ns_per_access", "ns"},
    {"trace.accesses", "count"},
    {"ctrl.ns_per_access", "ns"},
    {"ctrl.demand_accesses", "count"},
    {"ctrl.refreshes_issued", "count"},
    {"ctrl.row_hit_frac", "fraction"},
    {"dram.finalize_ms", "ms"},
    {"dram.refreshes", "count"},
    {"dram.self_s", "s"},
    {"core.walk_ns_per_counter", "ns"},
    {"core.walk_steps", "count"},
    {"core.sram_reads", "count"},
    {"core.resident_counter_mb", "MB"},
    {"cache.threed_s", "s"},
    {"cache.hit_frac", "fraction"},
    {"harness.baseline_s", "s"},
    {"harness.policy_s", "s"},
    {"harness.baseline_unique_frac", "fraction"},
    {"harness.build_s", "s"},
    {"harness.shard_merge_ms", "ms"},
    {"harness.shard_epochs", "count"},
    {"harness.cache_lookup_us", "us"},
    {"harness.cache_store_us", "us"},
    {"harness.cache_hit_frac", "fraction"},
    {"harness.sweepd_process_ms", "ms"},
    {"harness.sweepd_claim_us", "us"},
    {"harness.sweepd_health_ms", "ms"},
    {"harness.request_parse_us", "us"},
    {"harness.aggregate_ms", "ms"},
    {"harness.self_s", "s"},
    {"bench.unattributed_s", "s"},
    {"bench.tracing_overhead_frac", "fraction"},
    {"host.llc_probe_ms", "ms"},
};

/**
 * The set-up -- loading and expanding the grid file, what smartref_sweep
 * does before its first job -- takes about 0.01 ms, too short to time
 * singly against timer and scheduler noise. Each repetition therefore
 * sets up afresh in a timed batch of this many set-ups, and setup_s is
 * the median over repetitions of a batch's seconds per set-up. Spread
 * over the run like this, the batches see the host's quiet and busy
 * stretches in the same mix as the repetitions do.
 */
constexpr int kSetupsPerBatch = 1000;

/**
 * Untraced repetitions of a traced run. It times the second (warm, like
 * the traced one: a process's first repetition also pays for faulting
 * in its heap) against the traced repetition.
 */
constexpr std::size_t kTracedRunRepetitions = 2;

struct Args
{
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    bool trace = false;
};

/** Everything a run measured and checked. */
struct Outcome
{
    std::vector<double> wall, cpu; ///< one entry per repetition
    /** [part][repetition]: host / CPU seconds of each part of a
     *  repetition (runSimUntraced). */
    std::vector<std::vector<double>> partWall, partCpu;
    std::vector<double> setup; ///< seconds per set-up, per repetition
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    fail(std::uint64_t n, const std::string &why)
    {
        failed += n;
        problems.push_back(why);
    }
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
minimum(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** CPU seconds (user + sys) of every thread of the process. */
double
cpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/** Sum over parts of each part's fastest repetition. */
double
sumOfMinima(const std::vector<std::vector<double>> &parts)
{
    double sum = 0.0;
    for (const auto &p : parts)
        sum += minimum(p);
    return sum;
}

/**
 * Pins the calling thread, and the threads it starts, to `width` of the
 * CPUs the process may use, chosen by `rotation`, while alive; restores
 * the previous mask after. On this host's VM each CPU runs at its own
 * pace, set by what its neighbours do (one CPU does the same set-up in
 * 9 us while another takes 14 us, for minutes at a time). Rotating the
 * repetitions over every allowed CPU, and taking the fastest, removes
 * the lottery of where the scheduler happens to place a run.
 */
class CpuPin
{
  public:
    CpuPin(std::size_t rotation, unsigned width)
    {
        ::sched_getaffinity(0, sizeof(old_), &old_);
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &old_))
                cpus.push_back(c);
        if (cpus.size() <= width)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (unsigned i = 0; i < width; ++i)
            CPU_SET(cpus[(rotation + i) % cpus.size()], &set);
        pinned_ = ::sched_setaffinity(0, sizeof(set), &set) == 0;
    }
    ~CpuPin()
    {
        if (pinned_)
            ::sched_setaffinity(0, sizeof(old_), &old_);
    }
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t old_{};
    bool pinned_ = false;
};

/** Threads one repetition of a run keeps busy. */
unsigned
runWidth(const SweepRunOptions &opts)
{
    return std::max(opts.jobs, opts.shardJobs);
}

/** Start a fresh peak-RSS window (Linux clear_refs); false if refused. */
bool
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    return f && (f << "5").flush();
}

/** Peak RSS in MB since resetPeakRss() (VmHWM), else since exec. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path.string());
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!(out << text).flush())
        throw std::runtime_error("cannot write " + path.string());
}

std::string
num(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** Silences std::cerr (sweepd logs a line per request) while alive. */
class MuteStderr
{
  public:
    MuteStderr() : old_(std::cerr.rdbuf(nullptr)) {}
    ~MuteStderr() { std::cerr.rdbuf(old_); }
    MuteStderr(const MuteStderr &) = delete;
    MuteStderr &operator=(const MuteStderr &) = delete;

  private:
    std::streambuf *old_;
};

/** Scratch directory of one run, removed when the run ends. */
class WorkDir
{
  public:
    explicit WorkDir(const std::string &tag)
        : path_(fs::path(".bench_work") /
                (tag + "-" + std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

std::string
runResultJson(const RunResult &r)
{
    std::ostringstream os;
    writeRunResultJson(os, r);
    return os.str();
}

// ---------------------------------------------------------------- checks

/**
 * The paper's baseline refresh rates (Table 1; DESIGN.md section 4),
 * refreshes per second per channel at the preset's own retention. They
 * are written out here, not taken from the program, so that a preset
 * whose geometry or timing drifts fails the check.
 */
const std::map<std::string, double> kPaperAnchors = {
    {"2gb", 2048000.0},
    {"4gb", 4096000.0},
    {"3d64", 1024000.0},
    {"3d64-32ms", 2048000.0},
};

/**
 * Why a preset's configured refresh interval is off its anchor, or
 * empty. The nominal rate (rows / retention) must equal the paper's
 * where the paper gives one, and refreshSpacing() -- the interval the
 * CBR baseline uses -- must be the nominal interval quantised to whole
 * ticks, within one tick. (The 512gb preset's quantisation makes its
 * CBR run 1.9e-5 faster than nominal; README.md, Checks.)
 */
std::string
anchorProblem(const SweepPoint &p, const DramConfig &cfg)
{
    const auto paper = kPaperAnchors.find(p.config);
    if (p.retentionMs == 0 && paper != kPaperAnchors.end() &&
        cfg.baselineRefreshesPerSecond() != paper->second)
        return "nominal CBR rate " + num(cfg.baselineRefreshesPerSecond()) +
               "/s, paper anchor " + num(paper->second) + "/s";
    const double nominal = double(kSecond) / cfg.baselineRefreshesPerSecond();
    if (std::abs(double(cfg.refreshSpacing()) - nominal) >= 1.0)
        return "refreshSpacing() " + num(double(cfg.refreshSpacing())) +
               " ticks, nominal interval " + num(nominal);
    return {};
}

/**
 * Checks that hold for every job at every seed. The preset's refresh
 * interval must match its anchor (anchorProblem). The CBR baseline must
 * issue exactly one refresh per configured interval: its count over the
 * measured window equals window / refreshSpacing() per channel, up to
 * the refreshes that can straddle a window edge (due before the warmup
 * snapshot, issued after it) -- at most max(1, peak refresh backlog)
 * per channel. Neither run may violate retention. Returns a per-job
 * failure flag.
 */
std::vector<char>
anchorAndRetentionFailures(const std::vector<SweepJobResult> &results,
                           Outcome &out)
{
    std::vector<char> bad(results.size(), 0);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepPoint &p = results[i].job.point;
        DramConfig cfg = dramConfigByName(p.config);
        if (p.retentionMs > 0)
            cfg.timing.retention = Tick(p.retentionMs) * kMillisecond;
        if (const std::string why = anchorProblem(p, cfg); !why.empty()) {
            bad[i] = 1;
            out.problems.push_back(pointKey(p) + ": " + why);
        }
        const RunResult &base = results[i].comparison.baseline;
        const double window = base.simSeconds * double(kSecond);
        const double counted =
            std::round(base.refreshesPerSec * base.simSeconds);
        const double expected =
            cfg.channels * std::floor(window / double(cfg.refreshSpacing()));
        const double slack =
            cfg.channels * std::max<double>(1.0, base.maxRefreshBacklog);
        if (std::abs(counted - expected) > slack) {
            bad[i] = 1;
            out.problems.push_back(
                pointKey(p) + ": CBR baseline " + num(counted) +
                " refreshes, configured interval gives " + num(expected));
        }
        if (base.violations + results[i].comparison.smart.violations) {
            bad[i] = 1;
            out.problems.push_back(pointKey(p) + ": retention violations");
        }
    }
    return bad;
}

/** Failing metrics of `actualJson` against the smoke golden. */
std::size_t
goldenFailures(const std::string &actualJson, std::vector<std::string> &why)
{
    const std::map<std::string, double> golden =
        loadMetrics("ci/golden_smoke.json");
    const DiffTolerances tol = loadTolerances("ci/golden_tolerances.json");
    const std::map<std::string, double> actual =
        flattenMetrics(minijson::parse(actualJson));
    const DiffResult diff = diffMetrics(golden, actual, tol, true);
    for (const auto &f : diff.failures)
        why.push_back("golden mismatch: " + f.metric);
    for (const auto &m : diff.missingInB)
        why.push_back("golden metric missing: " + m);
    return diff.failures.size() + diff.missingInB.size();
}

/** Failed jobs of one simulation-workload repetition. */
std::uint64_t
checkSim(const Args &args, const std::vector<SweepJobResult> &results,
         Outcome &out)
{
    std::vector<char> bad = anchorAndRetentionFailures(results, out);
    if (args.workload == "bits-fixed") {
        // Fixed seeds: every counter width of one benchmark must see a
        // bit-identical CBR baseline (the precondition of reusing it).
        std::map<std::string, std::string> first;
        std::map<std::string, bool> same;
        for (const auto &r : results) {
            const std::string b = r.comparison.benchmark;
            const std::string j = runResultJson(r.comparison.baseline);
            if (!first.count(b)) {
                first[b] = j;
                same[b] = true;
            } else if (first[b] != j) {
                same[b] = false;
            }
        }
        for (std::size_t i = 0; i < results.size(); ++i)
            if (!same[results[i].comparison.benchmark]) {
                bad[i] = 1;
                out.problems.push_back(results[i].comparison.benchmark +
                                       ": CBR baselines differ by width");
            }
    }
    return static_cast<std::uint64_t>(
        std::count(bad.begin(), bad.end(), 1));
}

// ------------------------------------------------------ simulation runs

struct SimState
{
    SimInput in;
    SweepGrid grid;
    std::vector<SweepJob> jobs;
    /** runSweep over the whole grid, run once untimed after the
     *  repetitions; every repetition must aggregate to its bytes. */
    std::vector<SweepJobResult> results;
    std::string json; ///< its sweep.json bytes
};

/**
 * The grid holding only `p`. runSweep on it runs exactly the job the
 * whole grid runs at `p`: seeds derive from the point alone
 * (deriveJobSeed), or are the base seed (SeedMode::Fixed).
 */
SweepGrid
pointGrid(const SweepGrid &grid, const SweepPoint &p)
{
    SweepGrid g = grid;
    g.configs = {p.config};
    g.benchmarks = {p.benchmark};
    g.policies = {p.policy};
    g.counterBits = {p.counterBits};
    g.retentionMs = {p.retentionMs};
    g.parallelism = {p.parallelism};
    return g;
}

/**
 * The untraced repetitions. A repetition is the workload's input cut
 * into parts -- runSweep on each point of the grid in turn, then
 * writeSweepJson + writeSweepCsv of the assembled results -- each part
 * timed on its own. Each part's fastest repetition counts (see
 * runWorkload). After the repetitions, runSweep runs once more on the
 * whole grid, untimed, and every repetition's sweep.json must equal its
 * bytes.
 */
void
runSimUntraced(const Args &args, const fs::path &work, Outcome &out,
               SimState &st)
{
    st.in = simInput(args.workload, args.seed);
    const fs::path gridPath = work / "grid.json";
    const fs::path jsonPath = work / "sweep.json";
    const fs::path csvPath = work / "sweep.csv";
    const std::size_t reps =
        args.trace ? kTracedRunRepetitions : st.in.repetitions;
    std::vector<std::string> repJson;
    for (std::size_t r = 0; r < reps; ++r) {
        const CpuPin pin(r, runWidth(st.in.opts));
        writeFile(gridPath, st.in.gridJson);
        const auto s0 = Clock::now();
        for (int k = 0; k < kSetupsPerBatch; ++k) {
            st.grid = loadSweepGrid(gridPath.string());
            st.jobs = expandGrid(st.grid, st.in.opts.baseSeed,
                                 st.in.opts.seedMode);
        }
        out.setup.push_back(secondsSince(s0) / kSetupsPerBatch);
        out.partWall.resize(st.jobs.size() + 1);
        out.partCpu.resize(st.jobs.size() + 1);

        std::vector<SweepJobResult> results;
        double repWall = 0.0, repCpu = 0.0;
        const auto timed = [&](std::size_t part, const auto &body) {
            const double c0 = cpuSeconds();
            const auto t0 = Clock::now();
            body();
            const double wall = secondsSince(t0);
            const double cpu = cpuSeconds() - c0;
            out.partWall[part].push_back(wall);
            out.partCpu[part].push_back(cpu);
            repWall += wall;
            repCpu += cpu;
        };
        out.attempted += st.jobs.size();
        try {
            for (std::size_t i = 0; i < st.jobs.size(); ++i) {
                const SweepGrid one = pointGrid(st.grid, st.jobs[i].point);
                std::vector<SweepJobResult> r1;
                timed(i, [&] { r1 = runSweep(one, st.in.opts); });
                if (r1.size() != 1 || r1[0].job.seed != st.jobs[i].seed ||
                    pointKey(r1[0].job.point) != pointKey(st.jobs[i].point))
                    throw std::logic_error("the point grid of " +
                                           pointKey(st.jobs[i].point) +
                                           " ran another job");
                r1[0].job = st.jobs[i]; // its index in the whole grid
                results.push_back(std::move(r1[0]));
            }
            timed(st.jobs.size(), [&] {
                writeSweepJson(st.grid, st.in.opts, results,
                               jsonPath.string());
                writeSweepCsv(results, csvPath.string());
            });
        } catch (const std::exception &e) {
            out.fail(st.jobs.size(), std::string("sweep failed: ") +
                                         e.what());
            continue;
        }
        out.wall.push_back(repWall);
        out.cpu.push_back(repCpu);
        repJson.push_back(readFile(jsonPath));
        out.failed += checkSim(args, results, out);
    }

    st.results = runSweep(st.grid, st.in.opts);
    std::ostringstream json;
    writeSweepJson(st.grid, st.in.opts, st.results, json);
    st.json = json.str();
    for (std::size_t r = 0; r < repJson.size(); ++r)
        if (repJson[r] != st.json)
            out.fail(st.jobs.size(),
                     "repetition " + std::to_string(r) +
                         ": sweep.json differs from runSweep on the "
                         "whole grid");
}

/**
 * ci/golden_smoke.json pins the smoke grid at seed 42 and the default
 * windows: run it once that way, untimed and after the measured
 * section, and compare through the statdiff library.
 */
void
checkSmokeGolden(const SimState &st, Outcome &out)
{
    SweepRunOptions opts = st.in.opts;
    const SweepRunOptions defaults;
    opts.warmup = defaults.warmup;
    opts.measure = defaults.measure;
    const std::vector<SweepJobResult> results = runSweep(st.grid, opts);
    std::ostringstream json;
    writeSweepJson(st.grid, opts, results, json);
    out.attempted += results.size();
    std::vector<std::string> why;
    std::vector<char> bad = anchorAndRetentionFailures(results, out);
    if (goldenFailures(json.str(), why) > 0) {
        std::fill(bad.begin(), bad.end(), 1);
        out.problems.insert(out.problems.end(), why.begin(), why.end());
    }
    out.failed += std::count(bad.begin(), bad.end(), 1);
}

// ------------------------------------------------------------ sweepd path

/**
 * A small replay through SweepdService: a cache filled cold, then one
 * client in a closed loop submitting requests that the service claims
 * and processes. No workload takes this path, so the traced runs
 * drive it for the harness.sweepd_* and cache metrics, and the
 * self-tests tamper with it.
 */
struct ReplayState
{
    ReplayInput in;
    std::unique_ptr<SweepdService> service;
    /** Cold (simulated, never cached) comparison of every point. */
    std::map<std::string, ComparisonResult> cold;
    std::vector<SweepJob> missJobs; ///< new points, request order
    double hitFrac = 0.0;           ///< cache hits / lookups in the loop
};

/** A fresh queue + cache filled cold with the fill grid. */
void
replayFill(ReplayState &st, const fs::path &dir)
{
    fs::create_directories(dir);
    SweepdConfig cfg;
    cfg.queueDir = (dir / "queue").string();
    cfg.cacheDir = (dir / "cache").string();
    cfg.defaults = st.in.opts;
    st.service = std::make_unique<SweepdService>(cfg);
    writeFile(dir / "fill.json", st.in.fillGridJson);
    const SweepGrid grid = loadSweepGrid((dir / "fill.json").string());
    SweepRunOptions opts = st.in.opts;
    opts.cache = &st.service->cache();
    for (const auto &r : runSweep(grid, opts))
        st.cold[pointKey(r.job.point)] = r.comparison;
}

/** Flip one digit of a stored totalEnergyJ: the entry still parses,
 *  so only the output check can notice. */
void
tamperCacheEntry(ReplayState &st)
{
    const SweepdRequest req =
        parseSweepdRequest(st.in.requests.front().text, st.in.opts);
    const SweepJob job =
        expandGrid(req.grid, req.opts.baseSeed, req.opts.seedMode).front();
    const std::string path =
        st.service->cache().entryPath(resultCacheKey(job, req.opts).hex);
    std::string text = readFile(path);
    const std::string field = "\"totalEnergyJ\":";
    const std::size_t at = text.find(field);
    if (at == std::string::npos)
        throw std::runtime_error("tamper: no totalEnergyJ in " + path);
    std::size_t d = at + field.size();
    while (d < text.size() && !std::isdigit(static_cast<unsigned char>(text[d])))
        ++d;
    text[d] = text[d] == '9' ? '1' : static_cast<char>(text[d] + 1);
    writeFile(path, text);
}

/** The closed loop: one client submits, the service claims and runs. */
void
replayLoop(ReplayState &st, SpanRecorder *rec)
{
    SweepdService &svc = *st.service;
    MuteStderr mute;
    for (std::size_t i = 0; i < st.in.requests.size(); ++i) {
        const ReplayRequest &r = st.in.requests[i];
        ScopedSpan reqSpan(rec, "client.request", i + 1);
        {
            ScopedSpan span(rec, "client.submit", i + 1);
            const fs::path tmp = svc.incomingDir() / (r.stem + ".tmp");
            writeFile(tmp, r.text);
            fs::rename(tmp, svc.incomingDir() / (r.stem + ".json"));
        }
        fs::path claimed;
        bool got = false;
        {
            ScopedSpan span(rec, "harness.sweepd_claim", i + 1);
            got = svc.claimNext(claimed);
        }
        if (!got || claimed.stem().string() != r.stem)
            throw std::runtime_error("sweepd claimed '" +
                                     claimed.stem().string() +
                                     "' instead of '" + r.stem + "'");
        {
            ScopedSpan span(rec, "harness.sweepd_process", i + 1);
            svc.processOne(claimed);
        }
    }
}

/** A request's results assembled from the cold map, in grid order. */
std::vector<SweepJobResult>
coldResults(const SweepdRequest &req, const ReplayState &st)
{
    std::vector<SweepJobResult> results;
    for (const SweepJob &job :
         expandGrid(req.grid, req.opts.baseSeed, req.opts.seedMode)) {
        SweepJobResult r;
        r.job = job;
        r.comparison = st.cold.at(pointKey(job.point));
        results.push_back(std::move(r));
    }
    return results;
}

/**
 * Simulates every miss point cold (runSweepJob, no cache) into the cold
 * map, then checks each request: status "ok" and sweep.json
 * byte-identical to the grid aggregated from cold results.
 */
std::uint64_t
checkReplay(ReplayState &st, Outcome &out)
{
    for (const ReplayRequest &r : st.in.requests) {
        if (!r.miss)
            continue;
        const SweepdRequest req = parseSweepdRequest(r.text, st.in.opts);
        for (const SweepJob &job :
             expandGrid(req.grid, req.opts.baseSeed, req.opts.seedMode)) {
            const std::string key = pointKey(job.point);
            if (st.cold.count(key))
                continue;
            st.missJobs.push_back(job);
            st.cold[key] = runSweepJob(job, req.opts).comparison;
        }
    }
    std::uint64_t failed = 0;
    const fs::path done = st.service->doneDir();
    for (const ReplayRequest &r : st.in.requests) {
        const SweepdRequest req = parseSweepdRequest(r.text, st.in.opts);
        const std::vector<SweepJobResult> results = coldResults(req, st);
        bool ok = true;
        try {
            const minijson::Value status = minijson::parse(
                readFile(done / r.stem / "status.json"));
            if (status.at("status").str != "ok") {
                ok = false;
                out.problems.push_back(r.stem + ": status " +
                                       status.at("status").str);
            }
            std::ostringstream expected;
            writeSweepJson(req.grid, req.opts, results, expected);
            if (readFile(done / r.stem / "sweep.json") != expected.str()) {
                ok = false;
                out.problems.push_back(r.stem +
                                       ": sweep.json differs from cold");
            }
        } catch (const std::exception &e) {
            ok = false;
            out.problems.push_back(r.stem + ": " + e.what());
        }
        const std::vector<char> bad = anchorAndRetentionFailures(results, out);
        if (std::count(bad.begin(), bad.end(), 1) > 0)
            ok = false;
        failed += ok ? 0 : 1;
    }
    return failed;
}

/** Hits over lookups between two snapshots of a cache's counters. */
double
hitFrac(const ResultCacheStats &before, const ResultCacheStats &after)
{
    const double hits = double(after.hits - before.hits);
    const double looked = hits + double(after.misses - before.misses) +
                          double(after.corrupt - before.corrupt);
    return looked > 0 ? hits / looked : 0.0;
}

/**
 * The small replay at `seed` under `dir`: fill, optionally flip a digit
 * in one cache entry (self-test), run the loop, check every request.
 * Counts the requests in `out`.
 */
void
runReplay(ReplayState &st, std::uint64_t seed, const fs::path &dir,
          SpanRecorder *rec, bool tamper, Outcome &out)
{
    st.in = replayInput(seed);
    {
        ScopedSpan fill(rec, "harness.sweepd_fill");
        replayFill(st, dir);
    }
    if (tamper)
        tamperCacheEntry(st);
    const ResultCacheStats before = st.service->cache().stats();
    replayLoop(st, rec);
    st.hitFrac = hitFrac(before, st.service->cache().stats());
    out.attempted += st.in.requests.size();
    out.failed += checkReplay(st, out);
}

// --------------------------------------------------------------- tracing

struct Registry
{
    std::uint64_t busyNs, idleWaits, steals, epochs;

    static Registry
    now()
    {
        MetricsRegistry &m = globalMetrics();
        return {m.counter("thread_pool.busy_ns").value(),
                m.counter("thread_pool.idle_waits").value(),
                m.counter("thread_pool.steals").value(),
                m.counter("sharded.epochs").value()};
    }
};

std::string
requestTextFor(const SimInput &in)
{
    return "{\"grid\":" + in.gridJson +
           ",\"warmupMs\":" + std::to_string(in.opts.warmup / kMillisecond) +
           ",\"measureMs\":" +
           std::to_string(in.opts.measure / kMillisecond) + ",\"seed\":\"" +
           std::to_string(in.opts.baseSeed) + "\"}";
}

double
distinctBaselineFrac(const std::vector<SweepJob> &jobs)
{
    std::set<std::string> inputs;
    for (const SweepJob &j : jobs)
        inputs.insert(j.point.config + "|" + j.point.benchmark + "|" +
                      std::to_string(j.point.retentionMs) + "|" +
                      j.point.parallelism + "|" + std::to_string(j.seed));
    return jobs.empty() ? 0.0
                        : static_cast<double>(inputs.size()) / jobs.size();
}

/**
 * The traced run: the workload again with spans, the module drives,
 * the server drive, the bit-for-bit checks. Returns the per-layer
 * metrics; failures are added to `out`.
 */
std::map<std::string, double>
runTraced(const Args &args, const fs::path &work, Outcome &out,
          const SimState &sim, double untracedWall, double probeMs)
{
    std::map<std::string, double> m;
    SpanRecorder rec;
    TracedJobTotals totals;
    const SweepRunOptions &opts = sim.in.opts;

    int root = -1;
    {
        // On the CPUs of the untraced repetition it is compared with.
        const CpuPin pin(kTracedRunRepetitions - 1, runWidth(opts));
        ScopedSpan all(&rec, "bench.workload");
        root = all.index();
        std::vector<SweepJobResult> traced;
        for (const SweepJob &job : sim.jobs)
            traced.push_back(runTracedJob(job, opts, rec, totals));
        {
            ScopedSpan agg(&rec, "harness.aggregate");
            writeSweepJson(sim.grid, opts, traced,
                           (work / "traced.json").string());
            writeSweepCsv(traced, (work / "traced.csv").string());
        }
        for (std::size_t i = 0; i < traced.size(); ++i)
            if (ResultCache::comparisonJson(traced[i].comparison) !=
                ResultCache::comparisonJson(sim.results.at(i).comparison))
                out.fail(1, pointKey(traced[i].job.point) +
                                ": decomposed job differs from "
                                "runSweepJob");
    }
    const double tracedWall = rec.spans()[root].seconds();
    if (readFile(work / "traced.json") != sim.json)
        out.fail(1, "traced sweep.json differs from the untraced one");

    int drives = -1;
    GeneratorDrive gen;
    ControllerDrive ctrl;
    WalkDrive walk;
    CacheDrive cacheDrive;
    double healthMs = 0.0, parseUs = 0.0;
    {
        ScopedSpan all(&rec, "bench.drives");
        drives = all.index();
        // The sweepd path, which no simulation workload takes: the
        // small replay (4 cached points, 40 requests, 4 misses).
        ReplayState replay;
        Outcome replayOut;
        runReplay(replay, args.seed, work / "drive-replay", &rec, false,
                  replayOut);
        if (replayOut.failed)
            out.fail(replayOut.failed,
                     "sweepd drive: " + replayOut.problems.front());
        m["harness.cache_hit_frac"] = replay.hitFrac;
        std::vector<std::string> texts = {requestTextFor(sim.in)};
        for (const auto &r : replay.in.requests)
            texts.push_back(r.text);

        const auto conventional = std::find_if(
            sim.jobs.begin(), sim.jobs.end(), [](const SweepJob &j) {
                return !isThreeDConfigName(j.point.config);
            });
        if (conventional == sim.jobs.end())
            throw std::logic_error("no conventional job to drive");
        driveGeneratorAndController(*conventional, opts, rec, gen, ctrl);
        walk = driveWalk(rec);
        cacheDrive = driveResultCache(sim.results, opts,
                                      (work / "drive-cache").string(), rec);
        if (cacheDrive.mismatches)
            out.fail(cacheDrive.mismatches,
                     "result cache returned other bytes than stored");
        healthMs = driveHealthMs((work / "drive-sweepd").string(), rec);
        parseUs = driveParseUs(texts, opts, rec);
    }

    // The sharded server path, which neither workload takes: one 512gb
    // comparison at 2 shard jobs, decomposed like a workload's jobs, on
    // any 2 CPUs. Sharding is execution-only, so it must equal
    // runSweepJob's result at 1 shard job bit for bit.
    const SimInput serverIn = serverInput(args.seed);
    const SweepJob serverJob =
        expandGrid(parseSweepGrid(serverIn.gridJson),
                   serverIn.opts.baseSeed, serverIn.opts.seedMode)
            .front();
    TracedJobTotals serverTotals;
    SweepJobResult serverResult;
    int server = -1;
    const Registry before = Registry::now();
    {
        ScopedSpan all(&rec, "bench.server");
        server = all.index();
        serverResult = runTracedJob(serverJob, serverIn.opts, rec,
                                    serverTotals);
    }
    const Registry after = Registry::now();
    {
        SweepRunOptions one = serverIn.opts;
        one.shardJobs = 1;
        bool bad = anchorAndRetentionFailures({serverResult}, out)[0];
        if (ResultCache::comparisonJson(serverResult.comparison) !=
            ResultCache::comparisonJson(
                runSweepJob(serverJob, one).comparison)) {
            bad = true;
            out.problems.push_back("server drive: the decomposed job at 2 "
                                   "shard jobs differs from runSweepJob "
                                   "at 1");
        }
        out.attempted += 1;
        out.failed += bad ? 1 : 0;
    }

    const double runSeconds = rec.totalSeconds("sim.run_warmup", root) +
                              rec.totalSeconds("sim.run_measure", root);
    const double serverRunSeconds =
        rec.totalSeconds("sim.run_warmup", server) +
        rec.totalSeconds("sim.run_measure", server);
    m["sim.events"] = double(totals.events);
    m["sim.host_ns_per_event"] =
        totals.events ? runSeconds * 1e9 / double(totals.events) : 0.0;
    m["sim.pool_busy_frac"] =
        serverRunSeconds > 0
            ? (after.busyNs - before.busyNs) * 1e-9 /
                  (serverIn.opts.shardJobs * serverRunSeconds)
            : 0.0;
    m["sim.pool_idle_waits"] = double(after.idleWaits - before.idleWaits);
    m["sim.pool_steals"] = double(after.steals - before.steals);
    m["trace.gen_ns_per_access"] =
        gen.accesses ? gen.seconds * 1e9 / double(gen.accesses) : 0.0;
    m["trace.accesses"] = double(gen.accesses);
    m["ctrl.ns_per_access"] =
        ctrl.demandAccesses ? ctrl.seconds * 1e9 / double(ctrl.demandAccesses)
                            : 0.0;
    m["ctrl.demand_accesses"] = double(ctrl.demandAccesses);
    m["ctrl.refreshes_issued"] = double(ctrl.refreshes);
    m["ctrl.row_hit_frac"] = ctrl.rowHitFrac;
    m["dram.finalize_ms"] = rec.totalSeconds("dram.snapshot", server) * 1e3;
    m["dram.refreshes"] = double(totals.refreshes);
    m["core.walk_ns_per_counter"] =
        walk.seconds * 1e9 / double(walk.counters);
    m["core.walk_steps"] = double(walk.steps);
    m["core.sram_reads"] = double(walk.sramReads);
    m["core.resident_counter_mb"] =
        double(serverTotals.residentCounterBytes) / (1024.0 * 1024.0);
    m["cache.threed_s"] = totals.threeDSeconds;
    const double cacheLooks = double(totals.dramCacheHits) +
                              double(totals.dramCacheMisses);
    m["cache.hit_frac"] =
        cacheLooks > 0 ? double(totals.dramCacheHits) / cacheLooks : 0.0;
    m["harness.baseline_s"] = rec.totalSeconds("harness.baseline", root);
    m["harness.policy_s"] = rec.totalSeconds("harness.policy", root);
    m["harness.baseline_unique_frac"] = distinctBaselineFrac(sim.jobs);
    m["harness.build_s"] = rec.totalSeconds("harness.build", server);
    m["harness.shard_merge_ms"] =
        rec.totalSeconds("harness.shard_merge", server) * 1e3;
    m["harness.shard_epochs"] = double(after.epochs - before.epochs);
    m["harness.cache_lookup_us"] = cacheDrive.lookupUsMedian;
    m["harness.cache_store_us"] = cacheDrive.storeUsMedian;
    m["harness.sweepd_process_ms"] =
        median(rec.durations("harness.sweepd_process", -1)) * 1e3;
    m["harness.sweepd_claim_us"] =
        median(rec.durations("harness.sweepd_claim", -1)) * 1e6;
    m["harness.sweepd_health_ms"] = healthMs;
    m["harness.request_parse_us"] = parseUs;
    m["harness.aggregate_ms"] =
        rec.totalSeconds("harness.aggregate", root) * 1e3;
    const auto self = rec.selfTimeByModule(root);
    const auto selfOf = [&](const char *module) {
        const auto it = self.find(module);
        return it == self.end() ? 0.0 : it->second;
    };
    m["sim.self_s"] = selfOf("sim");
    m["dram.self_s"] = selfOf("dram");
    m["harness.self_s"] = selfOf("harness");
    m["bench.unattributed_s"] = selfOf("unattributed");
    m["bench.tracing_overhead_frac"] = tracedWall / untracedWall - 1.0;
    m["host.llc_probe_ms"] = probeMs;

    printSelfTimeTable(std::cout, rec, root,
                       args.workload + " traced repetition");
    printSelfTimeTable(std::cout, rec, drives, "module drives");
    printSelfTimeTable(std::cout, rec, server,
                       "server drive (512gb, 2 shard jobs)");
    std::cout << "traced wall " << num(tracedWall) << " s, untraced wall "
              << num(untracedWall) << " s, tracing overhead "
              << num(m["bench.tracing_overhead_frac"]) << "\n";

    fs::create_directories(".bench_work/traces");
    const fs::path spanFile =
        fs::path(".bench_work/traces") /
        (args.workload + "-seed" + std::to_string(args.seed) + ".json");
    std::ofstream sf(spanFile);
    rec.writeChromeJson(sf);
    std::cout << "spans: " << spanFile.string() << " ("
              << rec.spans().size() << ")\n";
    return m;
}

// ---------------------------------------------------------------- output

/** Print the check failures recorded from index `from` on (at most 20). */
void
printProblems(const Outcome &out, std::size_t from)
{
    for (std::size_t i = from; i < out.problems.size(); ++i) {
        if (i - from == 20) {
            std::cout << "  ... and " << out.problems.size() - i
                      << " more check failures\n";
            break;
        }
        std::cout << "  CHECK FAILED: " << out.problems[i] << "\n";
    }
}

void
printResult(const Outcome &out, const std::vector<MetricSpec> &specs,
            const std::map<std::string, double> &values)
{
    std::ostringstream os;
    os << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        os << (i ? ", " : "") << "\"" << specs[i].name
           << "\": {\"value\": " << num(values.at(specs[i].name))
           << ", \"unit\": \"" << specs[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

int
runWorkload(const Args &args)
{
    const double probeBefore = llcProbeMs();
    resetPeakRss();
    WorkDir work(args.workload);
    Outcome out;
    SimState sim;
    runSimUntraced(args, work.path(), out, sim);
    const double peakMb = peakRssMb();
    const double probeAfter = llcProbeMs();
    if (args.workload == "smoke-j1" && args.seed == kGoldenSeed)
        checkSmokeGolden(sim, out);
    // Each part's fastest repetition, for host and CPU seconds alike:
    // neighbours contending for the shared cache only ever slow a part
    // down, and a short part often runs in a quiet moment even while
    // the host is busy.
    const double wall = sumOfMinima(out.partWall);
    const double cpu = sumOfMinima(out.partCpu);

    std::cout << "workload " << args.workload << " seed " << args.seed
              << ": " << out.wall.size() << " repetition(s), "
              << out.attempted << " jobs attempted, " << out.failed
              << " failed\n  whole repetitions: fastest "
              << num(minimum(out.wall)) << " s, median "
              << num(median(out.wall)) << " s, slowest "
              << num(out.wall.empty() ? 0.0 : *std::max_element(
                                                  out.wall.begin(),
                                                  out.wall.end()))
              << " s\n  wall_s " << num(wall) << " s\n  cpu_s "
              << num(cpu) << " s\n  peak_rss_mb " << num(peakMb)
              << " MB\n  setup_s " << num(median(out.setup))
              << " s (median of " << out.setup.size() << " batches of "
              << kSetupsPerBatch << " set-ups)\n"
              << "  failed_frac "
              << num(double(out.failed) / double(out.attempted)) << " ("
              << out.failed << "/" << out.attempted << ")\n";
    std::cout << "  host.llc_probe_ms before " << num(probeBefore)
              << " after " << num(probeAfter) << " (diagnostic)\n";
    printProblems(out, 0);

    if (!args.trace) {
        printResult(out, kEndToEnd,
                    {{"wall_s", wall},
                     {"cpu_s", cpu},
                     {"peak_rss_mb", peakMb},
                     {"setup_s", median(out.setup)}});
        return 0;
    }
    const std::size_t untracedProblems = out.problems.size();
    const auto layers = runTraced(args, work.path(), out, sim,
                                  out.wall.back(),
                                  std::max(probeBefore, probeAfter));
    printProblems(out, untracedProblems);
    printResult(out, kPerLayer, layers);
    return 0;
}

// ------------------------------------------------------------ self-tests

int
selfTest()
{
    int failures = 0;
    const auto expect = [&](bool ok, const std::string &what) {
        std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
        failures += ok ? 0 : 1;
    };

    // Seeded inputs: same seed -> identical, other seed -> different.
    for (const std::string &name : workloads()) {
        const auto describe = [&](std::uint64_t seed) {
            const SimInput in = simInput(name, seed);
            return in.gridJson + "|" +
                   describeJobs(parseSweepGrid(in.gridJson), in.opts);
        };
        expect(describe(42) == describe(42),
               name + ": same seed gives identical inputs");
        expect(describe(42) != describe(7),
               name + ": another seed gives different inputs");
    }
    const auto replay = [](std::uint64_t seed) {
        const ReplayInput in = replayInput(seed);
        std::string s = in.fillGridJson;
        std::size_t misses = 0;
        for (const auto &r : in.requests) {
            s += (r.miss ? "|M" : "|W") + r.text;
            misses += r.miss ? 1 : 0;
        }
        return std::make_tuple(s, misses, in.requests.size());
    };
    expect(replay(42) == replay(42) &&
               std::get<0>(replay(42)) != std::get<0>(replay(7)),
           "sweepd replay: same seed gives identical requests, another "
           "seed different ones");
    expect(std::get<1>(replay(42)) == std::get<1>(replay(7)) &&
               std::get<2>(replay(42)) == 10 * std::get<1>(replay(42)),
           "sweepd replay: fixed 1-in-10 miss mix at every seed");

    // Metric names.
    const std::regex nameRe("^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$");
    bool namesOk = true;
    for (const auto *list : {&kEndToEnd, &kPerLayer})
        for (const auto &s : *list)
            namesOk = namesOk && std::regex_match(s.name, nameRe);
    expect(namesOk, "metric names use only letters, digits, _ . -");

    // Anchors: every preset a workload uses passes; a 2gb preset whose
    // retention or geometry drifted fails.
    {
        bool presetsOk = true;
        for (const std::string &name : workloads()) {
            const SimInput in = simInput(name, 42);
            for (const SweepJob &j :
                 expandGrid(parseSweepGrid(in.gridJson), 42, in.opts.seedMode))
                presetsOk = presetsOk &&
                            anchorProblem(j.point,
                                          dramConfigByName(j.point.config))
                                .empty();
        }
        expect(presetsOk, "every workload preset is on its refresh anchor");
        SweepPoint p;
        p.config = "2gb";
        DramConfig slow = dramConfigByName("2gb");
        slow.timing.retention += kMillisecond;
        DramConfig fewer = dramConfigByName("2gb");
        fewer.org.rows /= 2;
        expect(!anchorProblem(p, slow).empty() &&
                   !anchorProblem(p, fewer).empty(),
               "a 2gb preset off the 2,048,000/s anchor fails the check");
    }

    // Golden check: the golden's own numbers pass; the same output with
    // one digit of a gmean changed fails.
    {
        std::vector<std::string> why;
        const std::string golden = readFile("ci/golden_smoke.json");
        std::string off = golden;
        const std::size_t at = off.find("\"gmeanRefreshReduction\": 0.6");
        if (at != std::string::npos)
            off[at + 27] = '7';
        expect(goldenFailures(golden, why) == 0,
               "golden check passes on the golden's own numbers");
        expect(at != std::string::npos && goldenFailures(off, why) > 0,
               "golden mismatch is counted as a failure");
    }

    // Cache tamper on the small replay: a flipped digit in one entry
    // must raise failed_frac; the untampered run must not.
    for (const bool tamper : {false, true}) {
        WorkDir work(std::string("selftest-") + (tamper ? "t" : "c"));
        Outcome out;
        ReplayState st;
        runReplay(st, 11, work.path(), nullptr, tamper, out);
        if (tamper)
            expect(out.failed > 0, "flipped cache-entry byte raises "
                                   "failed_frac (" +
                                       std::to_string(out.failed) + "/" +
                                       std::to_string(out.attempted) + ")");
        else
            expect(out.failed == 0 && out.attempted == 40,
                   "small replay passes every check untampered");
        if (!tamper)
            for (const auto &p : out.problems)
                std::cout << "  " << p << "\n";
    }
    std::cout << (failures ? "self-test FAILED" : "self-test passed")
              << std::endl;
    return failures ? 1 : 0;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "smartref_perfbench: " << why
              << "\nusage: smartref_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "       smartref_perfbench --self-test | --list-metrics\n"
                 "workloads:";
    for (const auto &w : workloads())
        std::cerr << " " << w;
    std::cerr << std::endl;
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--self-test")
                return selfTest();
            if (a == "--list-metrics") {
                for (const auto &s : kEndToEnd)
                    std::cout << "end_to_end " << s.name << " " << s.unit
                              << "\n";
                for (const auto &s : kPerLayer)
                    std::cout << "per_layer " << s.name << " " << s.unit
                              << "\n";
                for (const auto &w : workloads())
                    std::cout << "workload " << w << "\n";
                return 0;
            }
            if (a == "--workload") {
                args.workload = value();
                haveWorkload = true;
            } else if (a == "--seed") {
                args.seed = std::stoull(value());
            } else if (a == "--seconds") {
                // Accepted and checked, but a run's length is set by
                // SimInput::repetitions, so the estimator never depends
                // on speed.
                (void)std::stod(value());
            } else if (a == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1")
                    usage("--trace takes 0 or 1");
                args.trace = t == "1";
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    const auto &w = workloads();
    if (std::find(w.begin(), w.end(), args.workload) == w.end())
        usage("unknown workload " + args.workload);
    try {
        return runWorkload(args);
    } catch (const std::exception &e) {
        std::cerr << "smartref_perfbench: " << e.what() << std::endl;
        return 1;
    }
}
