/**
 * @file
 * Seeded inputs of the benchmark's workloads. The simulator only ever
 * sees what these functions generate: a grid file's text plus run
 * options, or a sequence of sweepd request files. The same seed always
 * yields the same inputs.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace perfbench {

/** The benchmark's workloads, all in BENCHMARK.json (README.md says
 *  why each exists). Each runs a grid through runSweep(). */
const std::vector<std::string> &workloads();

/** Seed whose smoke-j1 outputs ci/golden_smoke.json pins. */
constexpr std::uint64_t kGoldenSeed = 42;

struct SimInput
{
    std::string gridJson; ///< text of the generated grid file
    smartref::SweepRunOptions opts;
    /** Repetitions of an untraced run: fixed, so the estimator (each
     *  part's fastest repetition) never depends on how fast the code
     *  is. */
    std::size_t repetitions = 0;
};

SimInput simInput(const std::string &workload, std::uint64_t seed);

/**
 * The sharded server comparison that traced runs drive on their own:
 * one 512gb mummer job (16 channels, 33.5M refresh targets, dense
 * counters) at 1 + 1 ms windows with 2 shard jobs. It is not a
 * workload: its host time follows memory-bandwidth contention on a
 * shared host too closely to gate (README.md, Workloads).
 */
SimInput serverInput(std::uint64_t seed);

struct ReplayRequest
{
    std::string stem; ///< request file name without ".json"
    std::string text; ///< request.json body
    bool miss = false; ///< adds one point the cache does not hold yet
};

struct ReplayInput
{
    std::string fillGridJson;        ///< grid the cold fill simulates
    smartref::SweepRunOptions opts;  ///< windows + seed of every request
    std::vector<ReplayRequest> requests;
};

/**
 * Inputs of the small sweepd replay that traced runs and self-tests
 * drive: 4 cached points, 40 requests, 4 of them misses.
 */
ReplayInput replayInput(std::uint64_t seed);

/** The job list a request or grid expands to, as one comparable string
 *  (point keys and seeds in grid order). */
std::string describeJobs(const smartref::SweepGrid &grid,
                         const smartref::SweepRunOptions &opts);

} // namespace perfbench
