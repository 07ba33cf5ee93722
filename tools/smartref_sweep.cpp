/**
 * @file
 * smartref_sweep — parallel experiment-sweep frontend.
 *
 * Expands a declarative grid over (config, retention, counter bits,
 * policy, benchmark) into independent baseline-vs-policy jobs, fans
 * them out over a work-stealing thread pool, and reduces the results
 * in grid order. The aggregate JSON/CSV outputs are byte-identical for
 * any -j N (see docs/sweep.md for the determinism contract).
 *
 * Usage:
 *   smartref_sweep [--grid NAME | --grid-file FILE] [-j N]
 *                  [--shard-jobs N]      worker threads inside each
 *                                        multi-channel job (sharded
 *                                        engine; execution-only)
 *                  [--sparse-counters]   hierarchical sparse counter
 *                                        array in every job
 *                  [--out-dir DIR]       output directory (default ".")
 *                  [--json FILE]         aggregate JSON path override
 *                  [--csv FILE]          per-job CSV path override
 *                  [--figures]           print paper-figure tables and
 *                                        write one CSV per figure
 *                  [--timing FILE]       wall-clock timing JSON (not
 *                                        deterministic; CI artifact)
 *                  [--heatmap-out FILE]  merged spatial refresh heatmap
 *                                        JSON (+ .csv sibling); still
 *                                        byte-identical for any -j N
 *                  [--telemetry-out FILE] live NDJSON execution
 *                                        telemetry (not deterministic)
 *                  [--check-conservation] verify the energy-ledger
 *                                        invariant inside every job
 *                  [--profile]           collect per-job phase profiles
 *                                        (telemetry NDJSON only)
 *                  [--parallelism A,B,..] override the grid's refresh
 *                                        parallelism axis (none, refpb,
 *                                        darp, sarp, all)
 *                  [--cache-dir DIR]     content-addressed result cache:
 *                                        only cache misses are simulated,
 *                                        aggregates stay byte-identical
 *                  [--incremental]       shorthand: cache at the default
 *                                        directory (SMARTREF_CACHE_DIR /
 *                                        XDG_CACHE_HOME/smartref /
 *                                        ~/.cache/smartref)
 *                  [--cache-verify]      recompute every hit and fail
 *                                        unless the stored result is
 *                                        bit-identical
 *                  [--cache-max-mb N]    LRU-prune the cache to N MB
 *                                        after the sweep
 *                  [--metrics-out FILE]  service-layer metrics snapshot
 *                                        JSON (not deterministic)
 *                  [--no-metrics]        disable metrics updates (the
 *                                        overhead-measurement baseline)
 *                  [--seed S] [--seed-mode derived|fixed]
 *                  [--warmup-ms N] [--measure-ms N] [--segments N]
 *                  [--no-auto] [--progress]
 *                  [--log-level silent|warn|info|debug]
 *                  [--list-grids]        list predefined grids and exit
 *                  [--version]           print the provenance build block
 *
 * Predefined grids (--grid): smoke, 2gb, 4gb, 3d64, 3d64-32ms, 3d32,
 * figures, bits, policies, policy-grid, server.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

#include <memory>

#include "harness/cli.hh"
#include "harness/report.hh"
#include "harness/result_cache.hh"
#include "harness/sweep.hh"
#include "harness/sweep_telemetry.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/provenance.hh"
#include "sim/thread_pool.hh"

using namespace smartref;

namespace {

void
listGrids()
{
    ReportTable table({"grid", "jobs", "description"});
    for (const auto &g : predefinedGrids()) {
        table.addRow({g.name,
                      std::to_string(expandGrid(g.grid, 42).size()),
                      g.description});
    }
    table.print(std::cout);
}

std::vector<std::string>
splitCommas(const std::string &csv)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : csv) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

SweepGrid
resolveGrid(const CliArgs &args)
{
    SweepGrid grid;
    if (args.has("grid-file")) {
        grid = loadSweepGrid(args.getString("grid-file"));
    } else {
        grid = predefinedGridByName(args.getString("grid", "smoke"));
    }
    if (args.has("parallelism")) {
        grid.parallelism = splitCommas(args.getString("parallelism"));
        if (grid.parallelism.empty())
            SMARTREF_FATAL("--parallelism needs at least one mode");
    }
    return grid;
}

/**
 * Wall-clock timing sidecar for CI benchmarking. Deliberately a
 * separate file: the aggregate JSON must stay byte-identical across
 * runs, and timing never is.
 */
void
writeTiming(const std::string &path, const SweepGrid &grid,
            const SweepRunOptions &opts, double wallSeconds,
            const std::vector<SweepJobResult> &results,
            const ResultCache *cache)
{
    double jobSeconds = 0.0;
    for (const auto &r : results)
        jobSeconds += r.wallSeconds;
    std::ofstream out(path);
    if (!out)
        SMARTREF_FATAL("cannot write timing JSON '", path, "'");
    RunMeta meta;
    meta.schema = "smartref-sweep-timing-v1";
    meta.configHash = sweepConfigHash(grid, opts);
    // The timing sidecar is already host-dependent, so it is the one
    // sweep artifact allowed to carry the process peak RSS.
    meta.peakRssBytes = currentPeakRssBytes();
    out << "{\"meta\":" << metaJson(meta) << ",\"grid\":\"" << grid.name
        << "\",\"jobs\":" << opts.jobs
        << ",\"jobCount\":" << results.size()
        << ",\"wallSeconds\":" << wallSeconds
        << ",\"cpuJobSeconds\":" << jobSeconds
        << ",\"parallelEfficiency\":"
        << (wallSeconds > 0.0 && opts.jobs > 0
                ? jobSeconds / (wallSeconds * opts.jobs)
                : 0.0);
    if (cache) {
        const ResultCacheStats cs = cache->stats();
        out << ",\"cache\":{\"hits\":" << cs.hits
            << ",\"misses\":" << cs.misses
            << ",\"corrupt\":" << cs.corrupt
            << ",\"stores\":" << cs.stores
            << ",\"evictions\":" << cs.evictions
            << ",\"verified\":" << cs.verified << "}";
    }
    out << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    if (args.has("version")) {
        std::cout << versionText("smartref_sweep");
        return 0;
    }
    if (args.has("list-grids")) {
        listGrids();
        return 0;
    }

    const SweepGrid grid = resolveGrid(args);
    if (args.has("figures"))
        checkFiguresGrid(grid);
    const ExperimentOptions eo = args.experimentOptions();
    setLogLevel(eo.logLevel);

    // Mirror the audit frontend: a metrics flag against a metrics-less
    // build is a configuration error, not a silently empty snapshot.
    if (args.has("metrics-out") && !kMetricsCompiledIn)
        SMARTREF_FATAL("--metrics-out requires a build with "
                       "-DSMARTREF_METRICS=ON");
    if (args.has("no-metrics"))
        setMetricsEnabled(false);

    SweepRunOptions opts;
    opts.jobs = args.jobs();
    opts.warmup = eo.warmup;
    opts.measure = eo.measure;
    opts.segments = eo.segments;
    opts.autoReconfigure = eo.autoReconfigure;
    opts.baseSeed = eo.seed;
    opts.logLevel = eo.logLevel;
    opts.progress = args.has("progress") || eo.verbose;
    opts.checkConservation = args.has("check-conservation");
    opts.profile = args.has("profile");
    opts.shardJobs = static_cast<unsigned>(args.getU64("shard-jobs", 1));
    opts.sparseCounters = args.has("sparse-counters");
    const std::string seedMode = args.getString("seed-mode", "derived");
    if (seedMode == "fixed")
        opts.seedMode = SeedMode::Fixed;
    else if (seedMode != "derived")
        SMARTREF_FATAL("unknown --seed-mode '", seedMode,
                       "' (derived, fixed)");

    // The cache is opt-in: --cache-dir names it explicitly,
    // --incremental and --cache-verify imply the default location.
    std::unique_ptr<ResultCache> cache;
    if (args.has("cache-dir") || args.has("incremental") ||
        args.has("cache-verify")) {
        cache = std::make_unique<ResultCache>(
            args.getString("cache-dir", ResultCache::defaultDir()));
        opts.cache = cache.get();
        opts.cacheVerify = args.has("cache-verify");
    } else if (args.has("cache-max-mb")) {
        SMARTREF_FATAL("--cache-max-mb needs --cache-dir or "
                       "--incremental");
    }

    const std::string outDir = args.getString("out-dir", ".");
    std::filesystem::create_directories(outDir);
    const std::string jsonPath =
        args.getString("json", outDir + "/" + grid.name + "_sweep.json");
    const std::string csvPath =
        args.getString("csv", outDir + "/" + grid.name + "_sweep.csv");
    const std::string heatmapPath = args.heatmapOutPath();
    opts.collectHeatmaps = !heatmapPath.empty();

    std::unique_ptr<SweepTelemetry> telemetry;
    const std::size_t jobCount =
        expandGrid(grid, opts.baseSeed, opts.seedMode).size();
    if (args.has("telemetry-out")) {
        telemetry =
            std::make_unique<SweepTelemetry>(args.telemetryOutPath());
        RunMeta meta;
        meta.schema = "smartref-sweep-telemetry-v1";
        meta.configHash = sweepConfigHash(grid, opts);
        meta.seedMode = seedMode;
        telemetry->sweepStart(grid.name, jobCount, opts.jobs,
                              metaJson(meta));
        opts.telemetry = telemetry.get();
    }

    std::cerr << "sweep '" << grid.name << "': " << jobCount
              << " jobs on " << opts.jobs << " worker(s)" << std::endl;

    const auto start = std::chrono::steady_clock::now();
    const std::vector<SweepJobResult> results = runSweep(grid, opts);
    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    writeSweepJson(grid, opts, results, jsonPath);
    writeSweepCsv(results, csvPath);
    std::cout << "aggregate JSON written to " << jsonPath << "\n"
              << "per-job CSV written to " << csvPath << "\n";

    if (!heatmapPath.empty()) {
        writeSweepHeatmapJson(grid, opts, results, heatmapPath);
        // Sibling CSV: foo.json -> foo.csv (or foo + ".csv").
        std::filesystem::path heatmapCsv(heatmapPath);
        heatmapCsv.replace_extension(".csv");
        writeSweepHeatmapCsv(results, heatmapCsv.string());
        std::cout << "heatmap JSON written to " << heatmapPath << "\n"
                  << "heatmap CSV written to " << heatmapCsv.string()
                  << "\n";
    }

    if (args.has("figures")) {
        // One figure set per config that has one; comparisons for a
        // config are contiguous (grid order) and in profile order when
        // the grid says benchmarks=["all"].
        for (const auto &config : grid.configs) {
            std::vector<ComparisonResult> comparisons;
            for (const auto &r : results) {
                if (r.job.point.config == config)
                    comparisons.push_back(r.comparison);
            }
            writeFigures(std::cout, config, comparisons, outDir);
        }
    }

    if (cache) {
        if (args.has("cache-max-mb"))
            cache->pruneToBytes(args.getU64("cache-max-mb", 0) * 1024 *
                                1024);
        const ResultCacheStats cs = cache->stats();
        std::cerr << "cache '" << cache->dir() << "': " << cs.hits
                  << " hit(s), " << cs.misses << " miss(es)";
        if (cs.corrupt)
            std::cerr << " (" << cs.corrupt << " corrupt)";
        std::cerr << ", " << cs.stores << " store(s)";
        if (cs.evictions)
            std::cerr << ", " << cs.evictions << " evicted";
        if (opts.cacheVerify)
            std::cerr << ", " << cs.verified << " verified";
        std::cerr << std::endl;
    }

    if (args.has("timing"))
        writeTiming(args.getString("timing"), grid, opts, wallSeconds,
                    results, cache.get());

    if (args.has("metrics-out")) {
        // Like --timing, a non-deterministic sidecar: never part of
        // the aggregate byte-identity contract.
        const std::string path = args.getString("metrics-out");
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out)
            SMARTREF_FATAL("cannot write metrics JSON '", path, "'");
        globalMetrics().writeJson(out);
        out << "\n";
        std::cout << "metrics snapshot written to " << path << "\n";
    }

    const std::uint64_t violations = totalViolations(results);
    if (violations > 0) {
        std::cerr << "ERROR: " << violations
                  << " retention violation(s) across the sweep\n";
        return 1;
    }
    std::cerr << "sweep complete in " << fmtDouble(wallSeconds, 1)
              << "s, no retention violations" << std::endl;
    return 0;
}
