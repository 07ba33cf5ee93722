/**
 * @file
 * Synthetic DRAM-level workload generator.
 *
 * What matters to a refresh policy is the stream of *row visits* over
 * time: which (rank, bank, row) pairs are touched, how often each is
 * re-touched relative to the retention interval, and how many column
 * accesses each visit performs (row-buffer locality). The generator
 * produces exactly that signature:
 *
 *  - Row visits start at `rowVisitsPerSecond` with configurable
 *    inter-arrival jitter.
 *  - Each visit picks a row: mostly a sequential sweep over the
 *    benchmark's footprint (cyclic scan), with a `randomJumpProb`
 *    fraction of Zipf-skewed jumps modelling hot structures.
 *  - A visit issues `accessesPerVisit` back-to-back column accesses to
 *    that row (the open-page hits), each read or write per
 *    `readFraction`.
 *
 * Rows are laid out block-linearly: footprint row index `fr` maps to
 * byte address fr * rowBytes (+ column offset), which under the default
 * row:rank:bank:column address scheme touches a distinct (rank, bank,
 * row) per index and interleaves banks between consecutive indices.
 * `rowStride`/`rowOffset` let multiprogrammed workloads interleave their
 * footprints across the module.
 */

#pragma once

#include <cstdint>
#include <string>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace smartref {

/** Calibrated generator parameters for one benchmark. */
struct WorkloadParams
{
    std::string name = "synthetic";
    std::string suite = "custom";
    double rowVisitsPerSecond = 1e6;  ///< row-visit initiation rate
    std::uint64_t footprintRows = 1024; ///< distinct rows cycled through
    std::uint32_t accessesPerVisit = 2; ///< open-page run length
    double randomJumpProb = 0.1;      ///< Zipf jump vs sequential sweep
    double zipfAlpha = 0.8;           ///< skew of random jumps
    double readFraction = 0.7;
    double interArrivalJitter = 0.5;  ///< 0 = clockwork, 1 = Poisson
    std::uint64_t rowStride = 1;      ///< footprint interleaving stride
    std::uint64_t rowOffset = 0;      ///< footprint interleaving offset
    Tick startAfter = 0;              ///< delay before the first visit
    Tick stopAfter = kTickMax;        ///< stop generating at this tick
    std::uint64_t seed = 42;
};

/** Event-driven synthetic access generator. */
class WorkloadModel : public StatGroup
{
  public:
    /** Receives each generated access. */
    using Sink = InlineFunction<void(Addr addr, bool write), 24>;

    /**
     * @param rowBytes row span of the target module (address granularity
     *                 of one footprint row index)
     */
    WorkloadModel(const WorkloadParams &params, std::uint64_t rowBytes,
                  Sink sink, EventQueue &eq, StatGroup *parent);

    /** Begin generating; the first visit is scheduled immediately. */
    void start();

    /** Stop generating (subsequent scheduled visits are ignored). */
    void stop() { running_ = false; }

    const WorkloadParams &params() const { return params_; }

    std::uint64_t
    rowVisits() const
    {
        return static_cast<std::uint64_t>(visits_.value());
    }

    std::uint64_t
    accessesIssued() const
    {
        return static_cast<std::uint64_t>(accesses_.value());
    }

  private:
    void scheduleNextVisit();
    void visit();
    std::uint64_t pickRow();
    Addr rowToAddr(std::uint64_t footprintRow, std::uint32_t column) const;

    WorkloadParams params_;
    std::uint64_t rowBytes_;
    Sink sink_;
    EventQueue &eq_;
    Rng rng_;
    ZipfSampler zipf_;
    Tick meanInterArrival_;
    std::uint64_t scanPos_ = 0;
    bool running_ = false;

    Scalar visits_;
    Scalar accesses_;
    Scalar jumps_;
};

} // namespace smartref
