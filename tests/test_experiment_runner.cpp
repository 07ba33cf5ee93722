/**
 * @file
 * Smoke tests for the experiment pipeline behind every sweep job:
 * full-size configurations with shortened windows, checking that the
 * calibration anchors hold end-to-end for single runs and for the
 * CBR-vs-Smart pairing of runSweepJob.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

using namespace smartref;

namespace {

ExperimentOptions
quickOpts()
{
    ExperimentOptions opts;
    // One retention interval of warmup is required for the stagger
    // transient; measure half an interval beyond to keep this fast.
    opts.warmup = 64 * kMillisecond;
    opts.measure = 64 * kMillisecond;
    return opts;
}

/** One-point sweep job comparing CBR with Smart Refresh at quickOpts(). */
ComparisonResult
compareSmart(const std::string &config, const std::string &benchmark)
{
    SweepJob job;
    job.point.config = config;
    job.point.benchmark = benchmark;
    job.seed = quickOpts().seed;
    SweepRunOptions opts;
    opts.warmup = quickOpts().warmup;
    opts.measure = quickOpts().measure;
    return runSweepJob(job, opts).comparison;
}

} // namespace

TEST(ExperimentRunner, ConventionalBaselineAnchor)
{
    const RunResult r = runConventional(findProfile("fasta"), ddr2_2GB(),
                                        PolicyKind::Cbr, quickOpts());
    EXPECT_NEAR(r.refreshesPerSec, 2048000.0, 2048000.0 * 0.002);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_GT(r.totalEnergyJ, 0.0);
    EXPECT_EQ(r.policy, "cbr");
}

TEST(ExperimentRunner, ConventionalComparisonHitsCalibration)
{
    const ComparisonResult c = compareSmart("2gb", "fasta");
    // fasta's calibration target is a 26 % reduction.
    EXPECT_NEAR(c.refreshReduction(), 0.26, 0.05);
    EXPECT_GT(c.refreshEnergySaving(), 0.10);
    EXPECT_GT(c.totalEnergySaving(), 0.0);
    EXPECT_EQ(c.baseline.violations, 0u);
    EXPECT_EQ(c.smart.violations, 0u);
}

TEST(ExperimentRunner, ThreeDBaselineAnchor)
{
    const RunResult r = runThreeD(findProfile("fasta"), dram3d_64MB(),
                                  PolicyKind::Cbr, quickOpts());
    EXPECT_NEAR(r.refreshesPerSec, 1024000.0, 1024000.0 * 0.002);
    EXPECT_EQ(r.violations, 0u);
}

TEST(ExperimentRunner, ThreeDComparisonHitsCalibration)
{
    const ComparisonResult c = compareSmart("3d64", "mummer");
    // mummer's 3D calibration target is a 42 % reduction.
    EXPECT_NEAR(c.refreshReduction(), 0.42, 0.06);
    EXPECT_EQ(c.smart.violations, 0u);
}

TEST(ExperimentRunner, ThirtyTwoMsDoublesThreeDBaseline)
{
    const RunResult r = runThreeD(findProfile("fasta"),
                                  dram3d_64MB_32ms(), PolicyKind::Cbr,
                                  quickOpts());
    EXPECT_NEAR(r.refreshesPerSec, 2048000.0, 2048000.0 * 0.002);
}

TEST(ExperimentRunner, FourGBBaselineAnchor)
{
    // The 4 GB footprint scale is derived from the module's geometry.
    const RunResult r = runConventional(findProfile("fasta"), ddr2_4GB(),
                                        PolicyKind::Cbr, quickOpts());
    EXPECT_NEAR(r.refreshesPerSec, 4096000.0, 4096000.0 * 0.002);
    EXPECT_EQ(r.violations, 0u);
}
