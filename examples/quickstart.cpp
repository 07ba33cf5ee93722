/**
 * @file
 * Quickstart: run the same workload on a 2 GB DDR2 system under the CBR
 * baseline and under Smart Refresh (runConventional builds the system,
 * runs warmup + measurement windows and reduces the metrics), and print
 * the headline metrics.
 *
 * Usage: quickstart [--measure-ms N] [--bits B] [--verbose]
 */

#include <iostream>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"

using namespace smartref;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    ExperimentOptions opts = args.experimentOptions();

    std::cout << "Smart Refresh quickstart: 2 GB DDR2-667, benchmark "
                 "profile 'mummer'\n"
              << "warmup " << opts.warmup / kMillisecond
              << " ms, measure " << opts.measure / kMillisecond
              << " ms, " << opts.counterBits << "-bit counters\n";

    // A mid-range workload: ~60 % of the module's rows kept alive.
    const BenchmarkProfile &mummer = findProfile("mummer");
    const RunResult base =
        runConventional(mummer, ddr2_2GB(), PolicyKind::Cbr, opts);
    const RunResult smart =
        runConventional(mummer, ddr2_2GB(), PolicyKind::Smart, opts);
    // Smart Refresh is charged its bus + counter overheads.
    const double baseRefreshJ = base.refreshEnergyJ + base.overheadJ;
    const double smartRefreshJ = smart.refreshEnergyJ + smart.overheadJ;

    ReportTable table({"metric", "CBR baseline", "Smart Refresh",
                       "change"});
    table.addRow({"refreshes/s", fmtMillions(base.refreshesPerSec) + " M",
                  fmtMillions(smart.refreshesPerSec) + " M",
                  fmtPercent(1.0 - smart.refreshesPerSec /
                                       base.refreshesPerSec) +
                      " fewer"});
    table.addRow({"refresh energy (mJ)", fmtDouble(baseRefreshJ * 1e3),
                  fmtDouble(smartRefreshJ * 1e3),
                  fmtPercent(1.0 - smartRefreshJ / baseRefreshJ) +
                      " saved"});
    table.addRow({"total DRAM energy (mJ)",
                  fmtDouble(base.totalEnergyJ * 1e3),
                  fmtDouble(smart.totalEnergyJ * 1e3),
                  fmtPercent(1.0 - smart.totalEnergyJ / base.totalEnergyJ) +
                      " saved"});
    table.addRow({"avg demand latency (ns)",
                  fmtDouble(base.avgLatencyNs, 1),
                  fmtDouble(smart.avgLatencyNs, 1), ""});
    table.addRow({"retention violations",
                  std::to_string(base.violations),
                  std::to_string(smart.violations), "(must be 0)"});
    std::cout << '\n';
    table.print(std::cout);

    if (base.violations || smart.violations) {
        std::cerr << "ERROR: retention violations detected\n";
        return 1;
    }
    return 0;
}
