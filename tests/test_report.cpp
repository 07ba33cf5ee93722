#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/report.hh"

using namespace smartref;

namespace {

ComparisonResult
fakeResult(const std::string &name, const std::string &suite,
           double baseRate, double smartRate)
{
    ComparisonResult c;
    c.benchmark = name;
    c.suite = suite;
    c.baseline.benchmark = name;
    c.baseline.refreshesPerSec = baseRate;
    c.baseline.refreshEnergyJ = 1.0;
    c.baseline.totalEnergyJ = 4.0;
    c.baseline.simSeconds = 0.1;
    c.baseline.latencySumSec = 0.01;
    c.smart = c.baseline;
    c.smart.refreshesPerSec = smartRate;
    c.smart.refreshEnergyJ = 0.5;
    c.smart.overheadJ = 0.1;
    c.smart.totalEnergyJ = 3.5;
    c.smart.latencySumSec = 0.009;
    return c;
}

} // namespace

TEST(ReportTable, AlignsAndPrints)
{
    ReportTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"a-much-longer-name", "22"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(ReportTable, RowWidthMismatchPanics)
{
    ReportTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(ReportTable, CsvRoundTrip)
{
    const std::string path = ::testing::TempDir() + "smartref_report.csv";
    ReportTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addSeparator();
    t.addRow({"y", "2"});
    t.writeCsv(path);
    std::ifstream in(path);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    std::remove(path.c_str());
    ASSERT_EQ(lines.size(), 3u); // header + 2 rows, separator skipped
    EXPECT_EQ(lines[0], "name,value");
    EXPECT_EQ(lines[1], "x,1");
    EXPECT_EQ(lines[2], "y,2");
}

TEST(CsvEscape, QuotesOnlyWhenNeeded)
{
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape(""), "");
    EXPECT_EQ(csvEscape("3.14"), "3.14");
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvEscape("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvEscape("cr\rhere"), "\"cr\rhere\"");
}

TEST(ReportTable, CsvEscapesSpecialCells)
{
    ReportTable t({"name", "note"});
    t.addRow({"with,comma", "a \"quoted\" word"});
    std::ostringstream oss;
    t.writeCsv(oss);
    std::istringstream lines(oss.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "name,note");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "\"with,comma\",\"a \"\"quoted\"\" word\"");
}

TEST(Formatting, Percent)
{
    EXPECT_EQ(fmtPercent(0.525), "52.5%");
    EXPECT_EQ(fmtPercent(0.5257, 2), "52.57%");
    EXPECT_EQ(fmtPercent(0.0), "0.0%");
}

TEST(Formatting, Millions)
{
    EXPECT_EQ(fmtMillions(2048000.0), "2.048");
    EXPECT_EQ(fmtMillions(691435.0), "0.691");
}

TEST(Formatting, Double)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtDouble(42.0, 0), "42");
}

TEST(ComparisonMetrics, Formulas)
{
    const ComparisonResult c =
        fakeResult("x", "S", 2048000.0, 1024000.0);
    EXPECT_DOUBLE_EQ(c.refreshReduction(), 0.5);
    // (0.5 + 0.1 overhead) / 1.0 baseline -> 40 % saving.
    EXPECT_DOUBLE_EQ(c.refreshEnergySaving(), 0.4);
    EXPECT_DOUBLE_EQ(c.totalEnergySaving(), 0.125);
    EXPECT_NEAR(c.perfImprovement(), 0.01, 1e-12);
}

TEST(PrintFigure, ProducesGmeanAndGroups)
{
    std::vector<ComparisonResult> results = {
        fakeResult("a", "S1", 100.0, 50.0),
        fakeResult("b", "S1", 100.0, 25.0),
        fakeResult("c", "S2", 100.0, 10.0),
    };
    std::ostringstream oss;
    const double gmean = printFigure(
        oss, "Test figure", "note", results, "reduction",
        [](const ComparisonResult &r) { return r.refreshReduction(); },
        true);
    EXPECT_NEAR(gmean, geometricMean({0.5, 0.75, 0.9}), 1e-12);
    EXPECT_NE(oss.str().find("GMEAN"), std::string::npos);
    EXPECT_NE(oss.str().find("Test figure"), std::string::npos);
}

TEST(PrintRefreshRateFigure, ShowsBaselineAnchor)
{
    std::vector<ComparisonResult> results = {
        fakeResult("a", "S1", 2048000.0, 512000.0),
    };
    std::ostringstream oss;
    const double gmean = printRefreshRateFigure(
        oss, "Rates", "", 2048000.0, results);
    EXPECT_NEAR(gmean, 512000.0, 1e-3);
    EXPECT_NE(oss.str().find("2.048"), std::string::npos);
    EXPECT_NE(oss.str().find("75.0%"), std::string::npos);
}

TEST(PrintFigure, DecimalsParameterControlsPrecision)
{
    std::vector<ComparisonResult> results = {
        fakeResult("a", "S", 10000.0, 9987.0)};
    std::ostringstream oss;
    printFigure(
        oss, "fine", "", results, "m",
        [](const ComparisonResult &r) { return r.refreshReduction(); },
        true, "", 3);
    EXPECT_NE(oss.str().find("0.130%"), std::string::npos);
}
