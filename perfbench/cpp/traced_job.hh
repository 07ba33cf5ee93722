/**
 * @file
 * One sweep job decomposed into the public calls runSweepJob() makes,
 * each wrapped in a span: the System / ThreeDSystem / ShardedSystem
 * constructor, run(warmup), the snapshot, run(measure), the final
 * retention check, for the baseline side and then the policy side.
 * The result must equal runSweepJob()'s bit for bit; the caller checks
 * that, so the traced run never measures a different program.
 */

#pragma once

#include <cstdint>

#include "harness/sweep.hh"
#include "spans.hh"

namespace perfbench {

/** Exact counts and layer totals accumulated over traced jobs. */
struct TracedJobTotals
{
    std::uint64_t events = 0;       ///< events executed, all runs
    std::uint64_t refreshes = 0;    ///< device refreshes, whole runs
    std::uint64_t residentCounterBytes = 0; ///< max over policy runs
    std::uint64_t dramCacheHits = 0;        ///< 3D DRAM cache
    std::uint64_t dramCacheMisses = 0;
    double threeDSeconds = 0.0;     ///< host time in 3D jobs
};

smartref::SweepJobResult
runTracedJob(const smartref::SweepJob &job,
             const smartref::SweepRunOptions &opts, SpanRecorder &rec,
             TracedJobTotals &totals);

} // namespace perfbench
