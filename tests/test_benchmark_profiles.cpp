#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/benchmark_profiles.hh"

using namespace smartref;

TEST(Profiles, ThirtyTwoBenchmarkRuns)
{
    EXPECT_EQ(allProfiles().size(), 32u);
}

TEST(Profiles, SuitesMatchPaper)
{
    std::map<std::string, int> counts;
    for (const auto &p : allProfiles())
        ++counts[p.suite];
    EXPECT_EQ(counts["Biobench"], 6);
    EXPECT_EQ(counts["SPLASH2"], 10);
    EXPECT_EQ(counts["SPECint2000"], 6);
    EXPECT_EQ(counts["2Proc"], 10);
}

TEST(Profiles, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &p : allProfiles())
        names.insert(p.name);
    EXPECT_EQ(names.size(), allProfiles().size());
}

TEST(Profiles, PaperAnchors)
{
    // Quoted in the paper's text.
    EXPECT_DOUBLE_EQ(findProfile("fasta").reduction2gb, 0.26);
    EXPECT_DOUBLE_EQ(findProfile("water-spatial").reduction2gb, 0.857);
    EXPECT_DOUBLE_EQ(findProfile("mummer").reduction3d, 0.42);
    EXPECT_DOUBLE_EQ(findProfile("clustalw").reduction3d, 0.42);
    EXPECT_DOUBLE_EQ(findProfile("fasta").reduction3d, 0.04);
    // perl_twolf is the strongest pair in Fig. 8.
    for (const auto &p : allProfiles()) {
        if (p.pair) {
            EXPECT_LE(p.reduction2gb,
                      findProfile("perl_twolf").reduction2gb);
        }
    }
}

TEST(Profiles, PairsAreMarked)
{
    EXPECT_TRUE(findProfile("gcc_twolf").pair);
    EXPECT_FALSE(findProfile("gcc").pair);
}

TEST(Profiles, UnknownNameFatals)
{
    EXPECT_THROW(findProfile("quake3"), std::runtime_error);
}

TEST(Profiles, SaneRanges)
{
    for (const auto &p : allProfiles()) {
        EXPECT_GT(p.reduction2gb, 0.0) << p.name;
        EXPECT_LT(p.reduction2gb, 0.9) << p.name;
        EXPECT_GT(p.reduction3d, 0.0) << p.name;
        EXPECT_LT(p.reduction3d, 0.5) << p.name;
        EXPECT_GT(p.readFraction, 0.4) << p.name;
        EXPECT_LE(p.readFraction, 1.0) << p.name;
        EXPECT_GE(p.accessesPerVisit, 1u) << p.name;
        EXPECT_LT(p.randomJumpProb, 0.5) << p.name;
    }
}

TEST(ConventionalParams, SingleBenchmarkDerivation)
{
    const DramConfig cfg = ddr2_2GB();
    const auto params = conventionalParams(findProfile("mummer"), cfg);
    ASSERT_EQ(params.size(), 1u);
    const auto &wp = params[0];
    // Footprint equals the target alive-row count.
    EXPECT_EQ(wp.footprintRows,
              static_cast<std::uint64_t>(0.68 * 131072));
    // Revisit period comfortably under the 56 ms minimum expiry.
    const double revisitSec =
        static_cast<double>(wp.footprintRows) /
        (wp.rowVisitsPerSecond * (1.0 - wp.randomJumpProb));
    EXPECT_LT(revisitSec, 0.050);
    EXPECT_GT(revisitSec, 0.020);
}

TEST(ConventionalParams, PairSplitsFootprintAndRate)
{
    const DramConfig cfg = ddr2_2GB();
    const auto single = conventionalParams(findProfile("perl"), cfg);
    const auto pair = conventionalParams(findProfile("perl_twolf"), cfg);
    ASSERT_EQ(pair.size(), 2u);
    EXPECT_EQ(pair[0].rowStride, 2u);
    EXPECT_EQ(pair[0].rowOffset, 0u);
    EXPECT_EQ(pair[1].rowOffset, 1u);
    EXPECT_NE(pair[0].seed, pair[1].seed);
    // Combined footprint matches the pair's calibration target.
    const std::uint64_t combined =
        pair[0].footprintRows + pair[1].footprintRows;
    EXPECT_NEAR(static_cast<double>(combined), 0.78 * 131072, 2.0);
    (void)single;
}

TEST(ConventionalParams, FourGBScalingIncreasesAbsoluteRows)
{
    const auto p2 = conventionalParams(findProfile("gcc"), ddr2_2GB());
    const auto p4 = conventionalParams(findProfile("gcc"), ddr2_4GB(),
                                       kFourGBRowScale);
    EXPECT_NEAR(static_cast<double>(p4[0].footprintRows),
                1.3 * static_cast<double>(p2[0].footprintRows), 2.0);
}

TEST(ConventionalParams, RowScaleIsExactAtTheCalibrationPoints)
{
    // Every conventional run derives its footprint scale from the
    // module geometry, so the 2 GB and 4 GB figures depend on these
    // two values being bit-exact.
    EXPECT_EQ(absRowScaleFor(ddr2_2GB().org), 1.0);
    EXPECT_EQ(absRowScaleFor(ddr2_4GB().org), kFourGBRowScale);
}

TEST(ConventionalParams, FootprintCappedByModule)
{
    // A 0.857 coverage on a module SMALLER than 2 GB must clamp.
    DramConfig small = dram3d_64MB();
    const auto params =
        conventionalParams(findProfile("water-spatial"), small);
    EXPECT_LE(params[0].footprintRows,
              static_cast<std::uint64_t>(0.95 * small.org.totalRows()));
}

TEST(ThreeDParams, TwoTierStructure)
{
    const DramConfig threeD = dram3d_64MB();
    const auto params = threeDParams(findProfile("mummer"), threeD);
    ASSERT_EQ(params.size(), 2u); // hot + cold tiers
    EXPECT_NE(params[0].name.find(".hot"), std::string::npos);
    EXPECT_NE(params[1].name.find(".cold"), std::string::npos);
    // Tier footprints sum to the calibration target.
    const std::uint64_t total =
        params[0].footprintRows + params[1].footprintRows;
    EXPECT_NEAR(static_cast<double>(total), 0.42 * 65536, 2.0);
    // Hot tier revisits much faster than the cold tier.
    const double hotRevisit =
        static_cast<double>(params[0].footprintRows) /
        params[0].rowVisitsPerSecond;
    const double coldRevisit =
        static_cast<double>(params[1].footprintRows) /
        params[1].rowVisitsPerSecond;
    EXPECT_LT(hotRevisit, 0.020);
    EXPECT_GT(coldRevisit, 0.030);
}

TEST(ThreeDParams, TiersDoNotOverlap)
{
    const DramConfig threeD = dram3d_64MB();
    const auto params = threeDParams(findProfile("gcc"), threeD);
    ASSERT_EQ(params.size(), 2u);
    // Cold tier starts where the hot tier ends.
    EXPECT_EQ(params[1].rowOffset,
              params[0].rowOffset +
                  params[0].rowStride * params[0].footprintRows);
}

TEST(ThreeDParams, PairsGetFourTiers)
{
    const auto params =
        threeDParams(findProfile("gcc_twolf"), dram3d_64MB());
    EXPECT_EQ(params.size(), 4u);
    // Processes interleave at stride 2.
    for (const auto &wp : params)
        EXPECT_EQ(wp.rowStride, 2u);
}

TEST(ThreeDParams, SameStreamForBothRetentions)
{
    // The 32 ms experiment reuses the 64 ms-calibrated stream.
    const auto p64 = threeDParams(findProfile("perl"), dram3d_64MB());
    const auto p32 =
        threeDParams(findProfile("perl"), dram3d_64MB_32ms());
    ASSERT_EQ(p64.size(), p32.size());
    for (std::size_t i = 0; i < p64.size(); ++i) {
        EXPECT_EQ(p64[i].footprintRows, p32[i].footprintRows);
        EXPECT_DOUBLE_EQ(p64[i].rowVisitsPerSecond,
                         p32[i].rowVisitsPerSecond);
    }
}

TEST(SpecialParams, IdleIsBelowDisableThreshold)
{
    const DramConfig cfg = ddr2_2GB();
    const WorkloadParams idle = idleParams(cfg);
    const double rowsPerInterval = idle.rowVisitsPerSecond * 0.064;
    EXPECT_LT(rowsPerInterval,
              0.01 * static_cast<double>(cfg.org.totalRows()));
}

TEST(SpecialParams, LightIsInsideHysteresisBand)
{
    const DramConfig cfg = ddr2_2GB();
    const WorkloadParams light = lightParams(cfg);
    const double rowsPerInterval = light.rowVisitsPerSecond * 0.064;
    EXPECT_GT(rowsPerInterval,
              0.01 * static_cast<double>(cfg.org.totalRows()));
    EXPECT_LT(rowsPerInterval,
              0.02 * static_cast<double>(cfg.org.totalRows()));
}
