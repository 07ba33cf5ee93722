#include "harness/experiment.hh"

#include <charconv>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <type_traits>

#include "dram/energy_ledger.hh"
#include "harness/sharded.hh"
#include "sim/logging.hh"
#include "sim/mini_json.hh"

namespace smartref {

EnergySnapshot
operator-(const EnergySnapshot &b, const EnergySnapshot &a)
{
    EnergySnapshot d;
    d.tick = b.tick - a.tick;
    d.refreshes = b.refreshes - a.refreshes;
    d.refreshEnergy = b.refreshEnergy - a.refreshEnergy;
    d.actEnergy = b.actEnergy - a.actEnergy;
    d.readEnergy = b.readEnergy - a.readEnergy;
    d.writeEnergy = b.writeEnergy - a.writeEnergy;
    d.backgroundEnergy = b.backgroundEnergy - a.backgroundEnergy;
    d.overheadEnergy = b.overheadEnergy - a.overheadEnergy;
    d.demandAccesses = b.demandAccesses - a.demandAccesses;
    d.latencySumTicks = b.latencySumTicks - a.latencySumTicks;
    d.violations = b.violations - a.violations;
    d.demandBlockedTicks = b.demandBlockedTicks - a.demandBlockedTicks;
    d.refreshStallsAvoided =
        b.refreshStallsAvoided - a.refreshStallsAvoided;
    d.subarrayConflicts = b.subarrayConflicts - a.subarrayConflicts;
    return d;
}

EnergySnapshot
captureSnapshot(System &sys)
{
    sys.dram().finalize();
    EnergySnapshot s;
    s.tick = sys.eventQueue().now();
    s.refreshes = sys.dram().totalRefreshes();
    const auto &p = sys.dram().power();
    s.refreshEnergy = p.refreshEnergy();
    s.actEnergy = p.activateEnergy();
    s.readEnergy = p.readEnergy();
    s.writeEnergy = p.writeEnergy();
    s.backgroundEnergy = p.backgroundEnergy();
    s.overheadEnergy = sys.refreshPolicy().overheadEnergy();
    s.demandAccesses =
        sys.controller().demandReads() + sys.controller().demandWrites();
    s.latencySumTicks = sys.controller().latencySumTicks();
    s.violations = sys.dram().retention().violations();
    s.demandBlockedTicks = sys.controller().demandBlockedTicks();
    s.refreshStallsAvoided = sys.controller().refreshStallsAvoided();
    s.subarrayConflicts = sys.controller().subarrayConflicts();
    return s;
}

EnergySnapshot
captureSnapshot(ThreeDSystem &sys)
{
    sys.threeDDram().finalize();
    EnergySnapshot s;
    s.tick = sys.eventQueue().now();
    s.refreshes = sys.threeDDram().totalRefreshes();
    const auto &p = sys.threeDDram().power();
    s.refreshEnergy = p.refreshEnergy();
    s.actEnergy = p.activateEnergy();
    s.readEnergy = p.readEnergy();
    s.writeEnergy = p.writeEnergy();
    s.backgroundEnergy = p.backgroundEnergy();
    s.overheadEnergy = sys.threeDPolicy().overheadEnergy();
    s.demandAccesses = sys.cache().demandAccesses();
    s.latencySumTicks = sys.cache().latencySum();
    s.violations = sys.threeDDram().retention().violations() +
                   sys.mainDram().retention().violations();
    s.demandBlockedTicks = sys.threeDController().demandBlockedTicks();
    s.refreshStallsAvoided =
        sys.threeDController().refreshStallsAvoided();
    s.subarrayConflicts = sys.threeDController().subarrayConflicts();
    return s;
}

namespace {

/** NaN-safe percentile in ns (empty histograms report 0, not NaN,
 *  because NaN would render as invalid JSON via jsonNumber). */
double
percentileNs(const Histogram &h, double p)
{
    const double v = h.percentile(p);
    return std::isnan(v) ? 0.0 : v / static_cast<double>(kNanosecond);
}

RunResult
reduce(const BenchmarkProfile &profile, PolicyKind policy,
       const EnergySnapshot &delta, std::size_t maxBacklog,
       const Histogram &latency, std::uint64_t eventsExecuted)
{
    RunResult r;
    r.benchmark = profile.name;
    r.suite = profile.suite;
    r.policy = toString(policy);
    r.simSeconds = static_cast<double>(delta.tick) /
                   static_cast<double>(kSecond);
    r.refreshesPerSec =
        r.simSeconds > 0.0
            ? static_cast<double>(delta.refreshes) / r.simSeconds
            : 0.0;
    r.refreshEnergyJ = delta.refreshEnergy;
    r.totalEnergyJ = delta.totalEnergy();
    r.overheadJ = delta.overheadEnergy;
    r.latencySumSec = delta.latencySumTicks / static_cast<double>(kSecond);
    r.demandAccesses = delta.demandAccesses;
    r.avgLatencyNs =
        delta.demandAccesses > 0
            ? delta.latencySumTicks /
                  static_cast<double>(delta.demandAccesses) /
                  static_cast<double>(kNanosecond)
            : 0.0;
    r.violations = delta.violations;
    r.maxRefreshBacklog = maxBacklog;
    r.demandBlockedByRefreshTicks = delta.demandBlockedTicks;
    r.refreshStallsAvoided = delta.refreshStallsAvoided;
    r.subarrayConflicts = delta.subarrayConflicts;
    r.latencyP50Ns = percentileNs(latency, 0.50);
    r.latencyP95Ns = percentileNs(latency, 0.95);
    r.latencyP99Ns = percentileNs(latency, 0.99);
    r.eventsExecuted = eventsExecuted;
    return r;
}

void
announce(const BenchmarkProfile &profile, const DramConfig &dram,
         PolicyKind policy, const ExperimentOptions &opts)
{
    if (!opts.verbose)
        return;
    std::cerr << "  [" << dram.name << "/" << toString(policy);
    if (dram.channels > 1)
        std::cerr << "/" << dram.channels << "ch";
    std::cerr << "] " << profile.name << "..." << std::endl;
}

/**
 * Copy the options' Smart Refresh knobs and observers into a system
 * config (SystemConfig or ThreeDSystemConfig). When conservation is
 * checked and no ledger is attached, a throwaway one, owned by
 * `checkLedger`, is wired up for the check.
 */
template <typename Config>
void
wireObservers(Config &cfg, const DramConfig &dram,
              const ExperimentOptions &opts,
              std::unique_ptr<EnergyLedger> &checkLedger)
{
    cfg.smart.counterBits = opts.counterBits;
    cfg.smart.segments = opts.segments;
    cfg.smart.queueCapacity = opts.segments;
    cfg.smart.autoReconfigure = opts.autoReconfigure;
    cfg.smart.sparseCounters = opts.sparseCounters;
    cfg.heatmap = opts.heatmap;
    cfg.audit = opts.audit;
    cfg.ledger = opts.ledger;
    cfg.profiler = opts.profiler;
    cfg.retentionClasses = opts.retentionClasses;
    if (opts.checkConservation && !cfg.ledger) {
        checkLedger = std::make_unique<EnergyLedger>(EnergyLedger::Shape{
            dram.channels * dram.org.ranks, dram.org.banks});
        cfg.ledger = checkLedger.get();
    }
}

/** @name The refresh domain a single-engine system is measured on. */
///@{
DramModule &
deviceOf(System &sys)
{
    return sys.dram();
}

DramModule &
deviceOf(ThreeDSystem &sys)
{
    return sys.threeDDram();
}

const MemoryController &
controllerOf(System &sys)
{
    return sys.controller();
}

const MemoryController &
controllerOf(ThreeDSystem &sys)
{
    return sys.threeDController();
}
///@}

/**
 * The measurement every run shares: warmup, snapshot, measure,
 * snapshot, the retention oracle's final check, the optional
 * conservation check, and the reduction of the window's delta. A
 * sharded system merges its channels' observers and latency
 * histograms (in channel order) before the reduction.
 */
template <typename Sys>
RunResult
measureRun(Sys &sys, const BenchmarkProfile &profile, PolicyKind policy,
           const ExperimentOptions &opts)
{
    constexpr bool sharded = std::is_same_v<Sys, ShardedSystem>;
    const auto snapshot = [&sys] {
        if constexpr (sharded)
            return sys.captureMergedSnapshot();
        else
            return captureSnapshot(sys);
    };
    sys.run(opts.warmup);
    const EnergySnapshot atWarm = snapshot();
    sys.run(opts.measure);
    EnergySnapshot delta = snapshot() - atWarm;

    if constexpr (sharded) {
        delta.violations += sys.finalCheck();
        if (opts.checkConservation)
            sys.verifyLedgers(true);
        sys.mergeObservers();
        StatGroup scratch("sharded");
        const Histogram &shape =
            sys.channel(0).controller().latencyHistogram();
        Histogram latency(&scratch, "latency", "merged demand latency",
                          shape.bucketLo(), shape.bucketHi(),
                          shape.numBuckets());
        sys.mergeLatency(latency);
        return reduce(profile, policy, delta, sys.maxRefreshBacklog(),
                      latency, sys.eventsExecuted());
    } else {
        delta.violations +=
            deviceOf(sys).retention().finalCheck(sys.eventQueue().now());
        if (opts.checkConservation)
            deviceOf(sys).verifyLedger(true);
        const MemoryController &ctrl = controllerOf(sys);
        return reduce(profile, policy, delta, ctrl.maxRefreshBacklog(),
                      ctrl.latencyHistogram(), sys.eventQueue().executed());
    }
}

} // namespace

RunResult
runConventional(const BenchmarkProfile &profile, const DramConfig &dram,
                PolicyKind policy, const ExperimentOptions &opts)
{
    announce(profile, dram, policy, opts);
    SystemConfig cfg;
    cfg.dram = dram;
    cfg.policy = policy;
    std::unique_ptr<EnergyLedger> checkLedger;
    wireObservers(cfg, dram, opts, checkLedger);
    // Larger modules spread each footprint over more rows than the
    // 2 GB calibration; the scale follows the row-buffer geometry, not
    // the config's name, so new configs are never silently unscaled.
    const double scale = absRowScaleFor(dram.org);

    if (dram.channels > 1) {
        ShardedSystem sys(cfg, opts.shardJobs);
        DramConfig chDram = dram;
        chDram.channels = 1;
        for (std::uint32_t c = 0; c < dram.channels; ++c) {
            for (const auto &wp :
                 conventionalParams(profile, chDram, scale,
                                    shardChannelSeed(opts.seed, c))) {
                sys.channel(c).addWorkload(wp);
            }
        }
        return measureRun(sys, profile, policy, opts);
    }

    System sys(cfg);
    for (const auto &wp :
         conventionalParams(profile, dram, scale, opts.seed)) {
        sys.addWorkload(wp);
    }
    return measureRun(sys, profile, policy, opts);
}

RunResult
runThreeD(const BenchmarkProfile &profile, const DramConfig &threeD,
          PolicyKind policy, const ExperimentOptions &opts)
{
    announce(profile, threeD, policy, opts);
    ThreeDSystemConfig cfg;
    cfg.threeD = threeD;
    cfg.threeDPolicy = policy;
    std::unique_ptr<EnergyLedger> checkLedger;
    wireObservers(cfg, threeD, opts, checkLedger);
    ThreeDSystem sys(cfg);
    for (const auto &wp : threeDParams(profile, threeD, opts.seed))
        sys.addWorkload(wp);
    return measureRun(sys, profile, policy, opts);
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(std::max(v, 1e-12));
    return std::exp(logSum / static_cast<double>(values.size()));
}

namespace {

/** Shortest round-trip decimal form (exact, locale-independent). */
std::string
cacheNumber(double v)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    SMARTREF_ASSERT(res.ec == std::errc(), "to_chars failed");
    return std::string(buf, res.ptr);
}

std::string
cacheQuoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    out += '"';
    return out;
}

double
requiredNumber(const minijson::Value &v, const char *name)
{
    const minijson::Value &m = v.at(name);
    if (!m.isNumber())
        throw std::runtime_error(std::string("member '") + name +
                                 "' is not a number");
    return m.number;
}

} // namespace

void
writeRunResultJson(std::ostream &os, const RunResult &r)
{
    os << "{\"benchmark\":" << cacheQuoted(r.benchmark)
       << ",\"suite\":" << cacheQuoted(r.suite)
       << ",\"policy\":" << cacheQuoted(r.policy)
       << ",\"simSeconds\":" << cacheNumber(r.simSeconds)
       << ",\"refreshesPerSec\":" << cacheNumber(r.refreshesPerSec)
       << ",\"refreshEnergyJ\":" << cacheNumber(r.refreshEnergyJ)
       << ",\"totalEnergyJ\":" << cacheNumber(r.totalEnergyJ)
       << ",\"overheadJ\":" << cacheNumber(r.overheadJ)
       << ",\"avgLatencyNs\":" << cacheNumber(r.avgLatencyNs)
       << ",\"latencySumSec\":" << cacheNumber(r.latencySumSec)
       << ",\"latencyP50Ns\":" << cacheNumber(r.latencyP50Ns)
       << ",\"latencyP95Ns\":" << cacheNumber(r.latencyP95Ns)
       << ",\"latencyP99Ns\":" << cacheNumber(r.latencyP99Ns)
       << ",\"demandBlockedByRefreshTicks\":"
       << cacheNumber(r.demandBlockedByRefreshTicks)
       << ",\"refreshStallsAvoided\":" << r.refreshStallsAvoided
       << ",\"subarrayConflicts\":" << r.subarrayConflicts
       << ",\"demandAccesses\":" << r.demandAccesses
       << ",\"violations\":" << r.violations
       << ",\"maxRefreshBacklog\":" << r.maxRefreshBacklog
       << ",\"eventsExecuted\":" << r.eventsExecuted << "}";
}

RunResult
runResultFromJson(const minijson::Value &v)
{
    RunResult r;
    r.benchmark = v.at("benchmark").str;
    r.suite = v.at("suite").str;
    r.policy = v.at("policy").str;
    r.simSeconds = requiredNumber(v, "simSeconds");
    r.refreshesPerSec = requiredNumber(v, "refreshesPerSec");
    r.refreshEnergyJ = requiredNumber(v, "refreshEnergyJ");
    r.totalEnergyJ = requiredNumber(v, "totalEnergyJ");
    r.overheadJ = requiredNumber(v, "overheadJ");
    r.avgLatencyNs = requiredNumber(v, "avgLatencyNs");
    r.latencySumSec = requiredNumber(v, "latencySumSec");
    r.latencyP50Ns = requiredNumber(v, "latencyP50Ns");
    r.latencyP95Ns = requiredNumber(v, "latencyP95Ns");
    r.latencyP99Ns = requiredNumber(v, "latencyP99Ns");
    r.demandBlockedByRefreshTicks =
        requiredNumber(v, "demandBlockedByRefreshTicks");
    r.refreshStallsAvoided = static_cast<std::uint64_t>(
        requiredNumber(v, "refreshStallsAvoided"));
    r.subarrayConflicts = static_cast<std::uint64_t>(
        requiredNumber(v, "subarrayConflicts"));
    r.demandAccesses =
        static_cast<std::uint64_t>(requiredNumber(v, "demandAccesses"));
    r.violations =
        static_cast<std::uint64_t>(requiredNumber(v, "violations"));
    r.maxRefreshBacklog =
        static_cast<std::size_t>(requiredNumber(v, "maxRefreshBacklog"));
    r.eventsExecuted =
        static_cast<std::uint64_t>(requiredNumber(v, "eventsExecuted"));
    return r;
}

} // namespace smartref
