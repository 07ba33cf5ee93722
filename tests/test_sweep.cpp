/**
 * @file
 * Sweep-subsystem tests: canonical grid expansion, coordinate-derived
 * seeding (pinned literals — changing the derivation breaks published
 * seeds), grid JSON parsing, and the headline determinism contract:
 * -j1 and -j8 produce byte-identical aggregate JSON and CSV.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "harness/sweep.hh"
#include "sim/mini_json.hh"

using namespace smartref;

namespace {

/** A 2-config x 2-benchmark x 2-bit-width grid (8 jobs). */
SweepGrid
smallGridA()
{
    SweepGrid g;
    g.name = "detA";
    g.configs = {"2gb", "3d64"};
    g.benchmarks = {"mummer", "gcc"};
    g.policies = {"smart"};
    g.counterBits = {2, 3};
    g.retentionMs = {0};
    return g;
}

/** A different shape: one config, retention override axis (6 jobs). */
SweepGrid
smallGridB()
{
    SweepGrid g;
    g.name = "detB";
    g.configs = {"3d64"};
    g.benchmarks = {"radix", "fft", "vpr_twolf"};
    g.policies = {"smart"};
    g.counterBits = {3};
    g.retentionMs = {32, 64};
    return g;
}

/** Tiny windows: determinism, not statistics, is under test. */
SweepRunOptions
fastOptions(unsigned jobs)
{
    SweepRunOptions opts;
    opts.jobs = jobs;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 4 * kMillisecond;
    return opts;
}

std::string
aggregateJson(const SweepGrid &grid, const SweepRunOptions &opts)
{
    std::ostringstream oss;
    writeSweepJson(grid, opts, runSweep(grid, opts), oss);
    return oss.str();
}

std::string
aggregateCsv(const SweepGrid &grid, const SweepRunOptions &opts)
{
    std::ostringstream oss;
    writeSweepCsv(runSweep(grid, opts), oss);
    return oss.str();
}

/**
 * Synthetic full-suite comparisons in profile order: figure views are
 * pure formatting, so no simulation is needed to exercise them.
 */
std::vector<ComparisonResult>
syntheticSuite()
{
    std::vector<ComparisonResult> out;
    for (const BenchmarkProfile &p : allProfiles()) {
        ComparisonResult c;
        c.benchmark = c.baseline.benchmark = p.name;
        c.suite = c.baseline.suite = p.suite;
        c.baseline.refreshesPerSec = 2048000.0;
        c.baseline.refreshEnergyJ = 1.0;
        c.baseline.totalEnergyJ = 4.0;
        c.baseline.simSeconds = 0.1;
        c.baseline.latencySumSec = 0.01;
        c.smart = c.baseline;
        c.smart.refreshesPerSec = 1024000.0;
        c.smart.refreshEnergyJ = 0.5;
        c.smart.totalEnergyJ = 3.5;
        c.smart.latencySumSec = 0.009;
        out.push_back(c);
    }
    return out;
}

/** Every line of a file. */
std::vector<std::string>
fileLines(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Sorted names of the files writeFigures left in a fresh directory. */
std::vector<std::string>
figureFiles(const std::string &config, const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ostringstream console;
    writeFigures(console, config, syntheticSuite(), dir);
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

TEST(SweepSeed, PointKeyIsCanonical)
{
    SweepPoint p;
    p.config = "2gb";
    p.benchmark = "mummer";
    p.policy = "smart";
    p.counterBits = 3;
    p.retentionMs = 0;
    EXPECT_EQ(pointKey(p),
              "config=2gb;bench=mummer;policy=smart;bits=3;retentionMs=0");
}

TEST(SweepSeed, DerivedSeedsArePinned)
{
    // These literals are part of the reproducibility contract: published
    // sweep results name these seeds. Do not change the derivation
    // without regenerating EXPERIMENTS.md.
    SweepPoint p;
    p.config = "2gb";
    p.benchmark = "mummer";
    p.policy = "smart";
    p.counterBits = 3;
    p.retentionMs = 0;
    EXPECT_EQ(deriveJobSeed(42, p), 17388960893229350514ULL);
    EXPECT_EQ(deriveJobSeed(7, p), 18177561402676755630ULL);

    p.config = "3d64";
    p.benchmark = "gcc";
    EXPECT_EQ(deriveJobSeed(42, p), 2363407939594536290ULL);

    p = SweepPoint{};
    p.config = "4gb";
    p.benchmark = "radix";
    p.policy = "cbr";
    p.counterBits = 2;
    p.retentionMs = 32;
    EXPECT_EQ(deriveJobSeed(42, p), 6012783005990786846ULL);
}

TEST(SweepSeed, SeedDependsOnEveryCoordinate)
{
    SweepPoint p;
    const std::uint64_t base = deriveJobSeed(42, p);
    auto differs = [base](SweepPoint q) {
        return deriveJobSeed(42, q) != base;
    };
    SweepPoint q = p;
    q.config = "4gb";
    EXPECT_TRUE(differs(q));
    q = p;
    q.benchmark = "gcc";
    EXPECT_TRUE(differs(q));
    q = p;
    q.policy = "cbr";
    EXPECT_TRUE(differs(q));
    q = p;
    q.counterBits = 4;
    EXPECT_TRUE(differs(q));
    q = p;
    q.retentionMs = 32;
    EXPECT_TRUE(differs(q));
}

TEST(SweepGridTest, ExpansionOrderIsCanonical)
{
    // config outermost, then retention, bits, policy, benchmark.
    SweepGrid g;
    g.configs = {"2gb", "3d64"};
    g.benchmarks = {"mummer", "gcc"};
    g.policies = {"smart"};
    g.counterBits = {2, 3};
    g.retentionMs = {0};
    const auto jobs = expandGrid(g, 42);
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].point.config, "2gb");
    EXPECT_EQ(jobs[0].point.counterBits, 2u);
    EXPECT_EQ(jobs[0].point.benchmark, "mummer");
    EXPECT_EQ(jobs[1].point.benchmark, "gcc"); // benchmark innermost
    EXPECT_EQ(jobs[2].point.counterBits, 3u);  // bits next
    EXPECT_EQ(jobs[4].point.config, "3d64");   // config outermost
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(SweepGridTest, SeedsAreOrderIndependent)
{
    // The same point gets the same seed in two differently-shaped grids.
    const auto a = expandGrid(smallGridA(), 42);
    SweepGrid single;
    single.configs = {"3d64"};
    single.benchmarks = {"gcc"};
    single.policies = {"smart"};
    single.counterBits = {3};
    single.retentionMs = {0};
    const auto b = expandGrid(single, 42);
    ASSERT_EQ(b.size(), 1u);
    bool found = false;
    for (const auto &job : a) {
        if (pointKey(job.point) == pointKey(b[0].point)) {
            EXPECT_EQ(job.seed, b[0].seed);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(SweepGridTest, FixedModeUsesBaseSeedEverywhere)
{
    const auto jobs = expandGrid(smallGridA(), 42, SeedMode::Fixed);
    for (const auto &job : jobs)
        EXPECT_EQ(job.seed, 42u);
}

TEST(SweepGridTest, AllExpandsToEveryProfile)
{
    SweepGrid g;
    const auto jobs = expandGrid(g, 42);
    EXPECT_EQ(jobs.size(), allProfiles().size());
}

TEST(SweepGridTest, UnknownNamesAreFatal)
{
    // SMARTREF_FATAL throws std::runtime_error with the message.
    SweepGrid g;
    g.configs = {"5gb"};
    EXPECT_THROW(expandGrid(g, 42), std::runtime_error);
    g = SweepGrid{};
    g.benchmarks = {"nosuch"};
    EXPECT_THROW(expandGrid(g, 42), std::runtime_error);
    g = SweepGrid{};
    g.policies = {"nosuch"};
    EXPECT_THROW(expandGrid(g, 42), std::runtime_error);
    g = SweepGrid{};
    g.counterBits = {0};
    EXPECT_THROW(expandGrid(g, 42), std::runtime_error);
}

TEST(SweepGridTest, ParsesJsonDescription)
{
    const SweepGrid g = parseSweepGrid(
        R"({"name":"x","configs":["2gb","4gb"],"benchmarks":["gcc"],
            "policies":["smart","cbr"],"counterBits":[2,4],
            "retentionMs":[0,32]})");
    EXPECT_EQ(g.name, "x");
    EXPECT_EQ(g.configs, (std::vector<std::string>{"2gb", "4gb"}));
    EXPECT_EQ(g.benchmarks, (std::vector<std::string>{"gcc"}));
    EXPECT_EQ(g.policies, (std::vector<std::string>{"smart", "cbr"}));
    EXPECT_EQ(g.counterBits, (std::vector<std::uint32_t>{2, 4}));
    EXPECT_EQ(g.retentionMs, (std::vector<std::uint64_t>{0, 32}));
}

TEST(SweepGridTest, JsonDefaultsAndErrors)
{
    const SweepGrid g = parseSweepGrid(R"({"name":"minimal"})");
    EXPECT_EQ(g.name, "minimal");
    EXPECT_EQ(g.configs, (std::vector<std::string>{"2gb"}));
    EXPECT_EQ(g.benchmarks, (std::vector<std::string>{"all"}));

    EXPECT_THROW(parseSweepGrid("{nope"), std::runtime_error);
    EXPECT_THROW(parseSweepGrid(R"({"benchmark":["gcc"]})"),
                 std::runtime_error);
}

namespace {

/** The message a callable's std::runtime_error carries ("" if none). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(SweepGridTest, UnknownJsonMemberSuggestsNearMiss)
{
    const std::string msg = fatalMessage(
        [] { parseSweepGrid(R"({"benchmark":["gcc"]})"); });
    EXPECT_NE(msg.find("unknown sweep grid member 'benchmark'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("did you mean 'benchmarks'?"), std::string::npos)
        << msg;
    // A name nothing like any axis gets no suggestion.
    const std::string far = fatalMessage(
        [] { parseSweepGrid(R"({"zzzz":["gcc"]})"); });
    EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
}

TEST(SweepGridTest, UnknownPredefinedGridSuggestsNearMiss)
{
    const std::string msg =
        fatalMessage([] { predefinedGridByName("smok"); });
    EXPECT_NE(msg.find("unknown grid 'smok'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'smoke'?"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("--list-grids"), std::string::npos) << msg;
}

TEST(SweepDeterminism, ParallelAggregatesAreByteIdenticalGridA)
{
    const SweepGrid grid = smallGridA();
    const std::string serialJson = aggregateJson(grid, fastOptions(1));
    const std::string parallelJson = aggregateJson(grid, fastOptions(8));
    EXPECT_EQ(serialJson, parallelJson);
    EXPECT_EQ(aggregateCsv(grid, fastOptions(1)),
              aggregateCsv(grid, fastOptions(8)));
}

TEST(SweepDeterminism, ParallelAggregatesAreByteIdenticalGridB)
{
    const SweepGrid grid = smallGridB();
    EXPECT_EQ(aggregateJson(grid, fastOptions(1)),
              aggregateJson(grid, fastOptions(8)));
}

TEST(SweepDeterminism, RepeatedRunsAreByteIdentical)
{
    const SweepGrid grid = smallGridB();
    EXPECT_EQ(aggregateJson(grid, fastOptions(3)),
              aggregateJson(grid, fastOptions(3)));
}

TEST(SweepJson, AggregateParsesAndCarriesAnchors)
{
    const SweepGrid grid = smallGridA();
    const SweepRunOptions opts = fastOptions(2);
    const minijson::Value root =
        minijson::parse(aggregateJson(grid, opts));
    EXPECT_EQ(root.at("schema").str, "smartref-sweep-v1");
    EXPECT_EQ(root.at("grid").at("name").str, "detA");
    EXPECT_EQ(root.at("options").at("seedMode").str, "derived");

    // Golden geometry/energy anchors (Table 1 and Table 3).
    const minijson::Value &anchors = root.at("anchors");
    EXPECT_DOUBLE_EQ(anchors.at("2gb").at("baselineRefreshesPerSec").number,
                     2048000.0);
    EXPECT_NEAR(anchors.at("2gb").at("busNanojoulesPerAddress").number,
                1.601, 0.001);
    EXPECT_DOUBLE_EQ(
        anchors.at("3d64").at("baselineRefreshesPerSec").number,
        1024000.0);

    const minijson::Value &jobs = root.at("jobs");
    ASSERT_EQ(jobs.array.size(), 8u);
    // Job order is grid order; the seed round-trips through the string.
    EXPECT_EQ(jobs.at(0).at("benchmark").str, "mummer");
    SweepPoint p;
    p.config = "2gb";
    p.benchmark = "mummer";
    p.policy = "smart";
    p.counterBits = 2;
    p.retentionMs = 0;
    EXPECT_EQ(jobs.at(0).at("seed").str,
              std::to_string(deriveJobSeed(42, p)));

    const minijson::Value &summary = root.at("summary");
    ASSERT_EQ(summary.array.size(), 4u); // 2 configs x 2 bit widths
    EXPECT_EQ(summary.at(0).at("jobs").number, 2.0);
    EXPECT_EQ(root.at("totalViolations").number, 0.0);
}

TEST(SweepJob, RetentionOverrideScalesBaselineRate)
{
    SweepJob job;
    job.point.config = "3d64";
    job.point.benchmark = "gcc";
    job.point.retentionMs = 32;
    job.seed = 42;
    const SweepRunOptions opts = fastOptions(1);
    const SweepJobResult r = runSweepJob(job, opts);
    // Halving retention doubles the baseline CBR refresh rate: the
    // 3d64 preset is 1,024,000/s at 64 ms, so 2,048,000/s at 32 ms.
    EXPECT_NEAR(r.comparison.baseline.refreshesPerSec, 2048000.0,
                2048000.0 * 0.01);
}

TEST(SweepFigures, SpecsCoverThePaperConfigs)
{
    EXPECT_EQ(figuresForConfig("2gb").size(), 3u);
    EXPECT_EQ(figuresForConfig("4gb").size(), 3u);
    EXPECT_EQ(figuresForConfig("3d64").size(), 3u);
    EXPECT_EQ(figuresForConfig("3d64-32ms").size(), 4u);
    EXPECT_TRUE(figuresForConfig("edram").empty());
    EXPECT_EQ(figuresForConfig("2gb")[0].id, "fig06");
    EXPECT_EQ(figuresForConfig("3d64-32ms")[3].id, "fig18");
}

TEST(SweepFigures, WritesOneCsvPerPaperFigure)
{
    const std::string dir = testing::TempDir() + "smartref_figures";
    using Names = std::vector<std::string>;
    EXPECT_EQ(figureFiles("2gb", dir),
              (Names{"fig06.csv", "fig07.csv", "fig08.csv"}));
    EXPECT_EQ(figureFiles("3d32", dir), Names{});

    const Names names = figureFiles("3d64-32ms", dir);
    ASSERT_EQ(names, (Names{"fig15.csv", "fig16.csv", "fig17.csv",
                            "fig18.csv"}));
    for (const std::string &name : names) {
        // A header, one row per benchmark, and the GMEAN footer.
        const auto lines = fileLines(dir + "/" + name);
        ASSERT_EQ(lines.size(), 34u) << name;
        EXPECT_EQ(lines.back().rfind("GMEAN,", 0), 0u) << name;
    }
    // Fig. 18's improvements are printed to 3 decimals: the synthetic
    // suite saves 1 ms of stall in 100 ms, i.e. 1.000%.
    const auto fig18 = fileLines(dir + "/fig18.csv");
    EXPECT_EQ(fig18.front(), "benchmark,suite,performance improvement");
    EXPECT_EQ(fig18.back(), "GMEAN,,1.000%");
    EXPECT_EQ(fileLines(dir + "/fig17.csv").back(), "GMEAN,,12.5%");
    std::filesystem::remove_all(dir);
}

TEST(SweepFigures, GridsThatMixSummaryGroupsAreRejected)
{
    EXPECT_NO_THROW(checkFiguresGrid(predefinedGridByName("figures")));

    // One grid per axis the figure tables cannot separate; several
    // configs are fine, because the tables are grouped by config.
    std::map<std::string, SweepGrid> mixed;
    mixed["counterBits"].counterBits = {1, 3};
    mixed["policies"].policies = {"smart", "rasonly"};
    mixed["retentionMs"].retentionMs = {32, 64};
    mixed["parallelism"].parallelism = {"refpb", "darp"};
    for (auto &[axis, grid] : mixed) {
        grid.configs = {"2gb", "3d64"};
        try {
            checkFiguresGrid(grid);
            ADD_FAILURE() << "a grid mixing " << axis << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("'" + axis + "'"),
                      std::string::npos)
                << e.what();
        }
        grid.counterBits = {3};
        grid.policies = {"smart"};
        grid.retentionMs = {0};
        grid.parallelism = {"refpb"};
        EXPECT_NO_THROW(checkFiguresGrid(grid));
    }
}
