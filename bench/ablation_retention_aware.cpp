/**
 * @file
 * Ablation: Section 8's orthogonality claim, quantified. The paper says
 * Smart Refresh "is orthogonal to [RAPID] and can be applied on top of
 * the retention-aware DRAM technique". This bench runs one benchmark on
 * the 2 GB module under four refresh schemes:
 *
 *   1. CBR baseline           (worst-case deadline for every row)
 *   2. RAPID-only             (per-row retention classes, no access info)
 *   3. Smart Refresh only     (access recency, worst-case deadline)
 *   4. Smart + RAPID          (multi-rate counters: both at once)
 *
 * Usage: ablation_retention_aware [--benchmark mummer] [--measure-ms N]
 */

#include <iostream>
#include <memory>

#include "bench_common.hh"

using namespace smartref;

namespace {

RunResult
runScheme(const BenchmarkProfile &profile, PolicyKind policy,
          std::shared_ptr<const RetentionClassMap> classes,
          ExperimentOptions opts)
{
    const DramConfig dram = ddr2_2GB();
    opts.autoReconfigure = false;
    opts.retentionClasses = std::move(classes);
    // Classes stretch some deadlines to 4x64 ms; warm long enough for
    // the slowest class to reach steady state.
    opts.warmup = std::max<Tick>(opts.warmup, 4 * dram.timing.retention);
    return runConventional(profile, dram, policy, opts);
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const ExperimentOptions opts = args.experimentOptions();
    const BenchmarkProfile &profile =
        findProfile(args.getString("benchmark", "mummer"));
    const DramConfig dram = ddr2_2GB();

    RetentionClassParams classParams;
    classParams.seed = opts.seed;
    auto classes = std::make_shared<RetentionClassMap>(
        dram.org.totalRows(), classParams);

    std::cout << "=== Ablation: Smart Refresh composed with RAPID-style "
                 "retention classes ===\n"
              << "benchmark " << profile.name
              << ", 2 GB module; classes: 2% weak (1x), 28% 2x, 70% 4x "
                 "(RAPID [32])\n"
              << "ideal class-limited rate: "
              << fmtMillions(
                     classes->idealRefreshRate(dram.timing.retention))
              << " M refreshes/s vs 2.048 M baseline\n\n";

    struct Scheme
    {
        const char *label;
        PolicyKind policy;
        bool useClasses;
    };
    const Scheme schemes[] = {
        {"CBR baseline", PolicyKind::Cbr, false},
        {"RAPID-only (classes)", PolicyKind::RetentionAware, true},
        {"Smart Refresh only", PolicyKind::Smart, false},
        {"Smart + RAPID (composed)", PolicyKind::Smart, true},
    };

    ReportTable table({"scheme", "refreshes/s (M)", "vs baseline",
                       "refresh+ovh energy (mJ)", "total (mJ)",
                       "violations"});
    double baselineRate = 0.0;
    for (const Scheme &s : schemes) {
        const RunResult r = runScheme(
            profile, s.policy, s.useClasses ? classes : nullptr, opts);
        if (s.policy == PolicyKind::Cbr)
            baselineRate = r.refreshesPerSec;
        table.addRow(
            {s.label, fmtMillions(r.refreshesPerSec),
             fmtPercent(1.0 - r.refreshesPerSec / baselineRate) +
                 " fewer",
             fmtDouble((r.refreshEnergyJ + r.overheadJ) * 1e3),
             fmtDouble(r.totalEnergyJ * 1e3),
             std::to_string(r.violations)});
        if (r.violations) {
            std::cerr << "retention violation under '" << s.label
                      << "'\n";
            return 1;
        }
    }
    table.print(std::cout);
    if (!args.csvPath().empty())
        table.writeCsv(args.csvPath());

    std::cout << "\nThe composed scheme skips refreshes for rows that "
                 "are either recently\naccessed (Smart) or strong "
                 "(RAPID) — more than either alone, with the\nretention "
                 "shadow model still reporting zero violations.\n";
    return 0;
}
