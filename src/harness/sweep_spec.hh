/**
 * @file
 * Sweep job-spec layer: the declarative grid, its canonical expansion
 * into jobs, and coordinate-derived seeding.
 *
 * This is the pure "what to run" half of the sweep subsystem — no
 * execution, no storage. The execution layer (harness/sweep.hh) fans
 * the expanded jobs out over the thread pool; the storage layer
 * (harness/result_cache.hh) keys finished results by the canonical
 * coordinates defined here. Keeping the spec separate means a cache
 * key or a queued sweepd request can be formed without ever
 * constructing a simulator.
 *
 * Determinism contract (shared with the execution layer):
 *  - every job's seed derives from its grid coordinates
 *    (deriveJobSeed), never from submission or completion order, so
 *    adding an axis value or changing -j N never perturbs another
 *    job's stream;
 *  - pointKey() is the canonical coordinate string: two grids
 *    containing the same point agree on its key, its seed, and (via
 *    the result cache) its stored result.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace minijson {
class Value;
}

namespace smartref {

/** Coordinates of one job in a sweep grid. */
struct SweepPoint
{
    std::string config = "2gb";     ///< preset name (dramConfigByName)
    std::string benchmark = "mummer"; ///< profile name
    std::string policy = "smart";   ///< compared against the CBR baseline
    std::uint32_t counterBits = 3;
    std::uint64_t retentionMs = 0;  ///< 0 = the preset's own retention
    /**
     * Refresh-access parallelism mode ("none", "refpb", "darp",
     * "sarp", "all" = DSARP). Applied to both runs of the comparison,
     * so baseline and policy see the same device semantics. The
     * default "refpb" is the historical behaviour and is omitted from
     * pointKey() to keep existing seeds/goldens stable.
     */
    std::string parallelism = "refpb";
};

/**
 * A declarative sweep grid. Axes expand in canonical nesting order —
 * config (outermost), retentionMs, counterBits, policy, parallelism,
 * benchmark (innermost) — so job indices are stable properties of the
 * grid, not of the execution.
 */
struct SweepGrid
{
    std::string name = "sweep";     ///< used for output file names
    std::vector<std::string> configs = {"2gb"};
    /** Profile names; the single entry "all" expands to all 32. */
    std::vector<std::string> benchmarks = {"all"};
    std::vector<std::string> policies = {"smart"};
    std::vector<std::uint32_t> counterBits = {3};
    std::vector<std::uint64_t> retentionMs = {0};
    /** Parallelism modes (refresh_parallelism.hh names). */
    std::vector<std::string> parallelism = {"refpb"};
};

/**
 * Parse a grid from its JSON description:
 *
 *   { "name": "fig06", "configs": ["2gb"], "benchmarks": ["all"],
 *     "policies": ["smart"], "counterBits": [3], "retentionMs": [0] }
 *
 * Missing members keep the SweepGrid defaults; unknown members are
 * fatal (bad user configuration) with a did-you-mean suggestion over
 * the known axis names. Throws std::runtime_error on malformed JSON.
 */
SweepGrid parseSweepGrid(const std::string &jsonText);

/**
 * parseSweepGrid over an already-parsed JSON object — the form sweepd
 * requests use to embed a grid inline.
 */
SweepGrid sweepGridFromJson(const minijson::Value &root);

/** parseSweepGrid over a file's contents (fatal when unreadable). */
SweepGrid loadSweepGrid(const std::string &path);

/** How job seeds are chosen during grid expansion. */
enum class SeedMode {
    Derived, ///< deriveJobSeed(base, point): the determinism contract
    Fixed,   ///< every job uses the base seed (EXPERIMENTS.md)
};

/** "derived" / "fixed"; the spelling used in JSON artifacts. */
const char *seedModeName(SeedMode mode);

/** Canonical coordinate key of a point, the input to seed derivation. */
std::string pointKey(const SweepPoint &point);

/**
 * Seed of the job at `point`: splitmix64-finalised mix of the base
 * seed with an FNV-1a hash of pointKey(). Depends only on the
 * coordinates — two grids containing the same point give its job the
 * same seed. Pinned by tests/test_sweep.cpp.
 */
std::uint64_t deriveJobSeed(std::uint64_t baseSeed, const SweepPoint &point);

/** One expanded job: a grid index, coordinates and the derived seed. */
struct SweepJob
{
    std::size_t index = 0;
    SweepPoint point;
    std::uint64_t seed = 0;
};

/** Expand a grid into jobs in canonical order (validates all names). */
std::vector<SweepJob> expandGrid(const SweepGrid &grid,
                                 std::uint64_t baseSeed,
                                 SeedMode mode = SeedMode::Derived);

/** A predefined grid with its one-line description (--list-grids). */
struct NamedGrid
{
    std::string name;
    std::string description;
    SweepGrid grid;
};

/**
 * The predefined grids every frontend (smartref_sweep, smartref_sweepd
 * requests) resolves by name: "smoke" (the CI gate), one per paper
 * config, "figures", "bits", "policies", "policy-grid", "server".
 */
const std::vector<NamedGrid> &predefinedGrids();

/**
 * Resolve a predefined grid by name; fatal on an unknown name with a
 * did-you-mean suggestion over the known grid names.
 */
SweepGrid predefinedGridByName(const std::string &name);

} // namespace smartref
