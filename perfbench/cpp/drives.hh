/**
 * @file
 * Stand-alone drives of single modules, for the traced run's per-layer
 * numbers, plus the host-contention probe. Each drive calls one
 * module's public functions directly on fixed inputs derived from the
 * workload, inside a span.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "spans.hh"

namespace perfbench {

/**
 * Milliseconds for a fixed pointer chase through an 8 MiB buffer that
 * no program input affects. It moves only with
 * the host (cache contention, frequency), so a set of runs taken under
 * load shows up here instead of silently shifting medians.
 */
double llcProbeMs();

struct GeneratorDrive
{
    std::uint64_t accesses = 0;
    double seconds = 0.0;
};

struct ControllerDrive
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t refreshes = 0;
    double rowHitFrac = 0.0;
    double seconds = 0.0;
};

/**
 * The trace module alone (WorkloadModel into a recording sink) and
 * then the control path alone (the recorded stream replayed into
 * MemoryController::access on a fresh System under the job's policy),
 * both over a fixed 32 ms window of the job's first channel.
 */
void driveGeneratorAndController(const smartref::SweepJob &job,
                                 const smartref::SweepRunOptions &opts,
                                 SpanRecorder &rec, GeneratorDrive &gen,
                                 ControllerDrive &ctrl);

struct WalkDrive
{
    std::uint64_t counters = 0;
    std::uint64_t steps = 0;
    std::uint64_t sramReads = 0;
    double seconds = 0.0;
};

/** One full StaggerScheduler period over a counter array sized for
 *  every refresh target of the 512gb preset (3-bit counters). */
WalkDrive driveWalk(SpanRecorder &rec);

struct CacheDrive
{
    double lookupUsMedian = 0.0;
    double storeUsMedian = 0.0;
    std::size_t mismatches = 0; ///< lookups that returned other bytes
};

/** ResultCache::store then ::lookup of the workload's own results in a
 *  scratch cache directory, repeated to at least `minOps` of each. */
CacheDrive driveResultCache(
    const std::vector<smartref::SweepJobResult> &results,
    const smartref::SweepRunOptions &opts, const std::string &dir,
    SpanRecorder &rec, std::size_t minOps = 200);

/** Median milliseconds of SweepdService::writeHealth on a fresh
 *  service rooted at `queueDir`. */
double driveHealthMs(const std::string &queueDir, SpanRecorder &rec);

/** Median microseconds of parseSweepdRequest over `texts`, cycled to
 *  at least 200 parses. */
double driveParseUs(const std::vector<std::string> &texts,
                    const smartref::SweepRunOptions &defaults,
                    SpanRecorder &rec);

double median(std::vector<double> v);

} // namespace perfbench
