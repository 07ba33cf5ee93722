/**
 * @file
 * Figure/table formatting: aligned console tables, per-suite grouping,
 * geometric-mean footers and CSV export — one call per paper figure
 * (see writeFigures in harness/sweep.hh).
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace smartref {

/** A simple aligned-column console table. */
class ReportTable
{
  public:
    explicit ReportTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);
    void addSeparator();

    /** Print with column alignment to stdout. */
    void print(std::ostream &os) const;

    /** Write as RFC 4180 CSV (separators skipped). */
    void writeCsv(const std::string &path) const;

    /** Write the CSV to a caller-owned stream. */
    void writeCsv(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_; // empty row = separator
};

/**
 * Quote a CSV field per RFC 4180: fields containing commas, double
 * quotes or line breaks are wrapped in double quotes, with embedded
 * quotes doubled. Other fields pass through unchanged.
 */
std::string csvEscape(const std::string &field);

/** @name Formatting helpers. */
///@{
std::string fmtPercent(double fraction, int decimals = 1);
std::string fmtMillions(double value, int decimals = 3);
std::string fmtDouble(double value, int decimals = 3);
///@}

/** Extracts a per-benchmark metric from a comparison. */
using MetricFn = std::function<double(const ComparisonResult &)>;

/**
 * Print one paper figure: a banner with the paper's reference values, a
 * table of per-benchmark rows grouped by suite, and a GMEAN footer.
 *
 * @param csvPath when non-empty, the table is also written as CSV
 * @return the geometric mean of the metric over all benchmarks
 */
double printFigure(std::ostream &os, const std::string &title,
                   const std::string &paperNote,
                   const std::vector<ComparisonResult> &results,
                   const std::string &metricName, const MetricFn &metric,
                   bool metricIsPercent, const std::string &csvPath = "",
                   int decimals = 1);

/**
 * Print a refresh-rate figure (Figs. 6/9/12/15): baseline and Smart
 * refreshes per second plus the reduction, with the baseline anchor.
 */
double printRefreshRateFigure(std::ostream &os, const std::string &title,
                              const std::string &paperNote,
                              double baselinePerSec,
                              const std::vector<ComparisonResult> &results,
                              const std::string &csvPath = "");

} // namespace smartref
