/**
 * @file
 * The staggered segment countdown of paper Section 4.2 (Figure 3).
 *
 * The counter array is partitioned into N logical segments. At every
 * *step*, exactly one counter per segment is touched (N total), and the
 * step index advances so that each counter is touched exactly once per
 * *counter access period* P = retention / 2^bits. A touched counter at
 * zero is reset to max and a refresh is emitted; otherwise it decrements.
 *
 * This walk guarantees (a) at most N refreshes are generated per step —
 * which bounds the pending-refresh queue at the segment count — and
 * (b) the spacing between touches of one counter is exactly P, which is
 * what makes the Section 4.3 correctness argument hold.
 *
 * For the 2 GB module (131072 counters, 8 segments) each segment covers
 * exactly one (rank, bank) pair, so the N simultaneous refreshes land in
 * independent banks and proceed in parallel.
 *
 * When the CounterArray was built with an interleave factor equal to the
 * segment count, one step's N counters are physically adjacent bytes and
 * the walk runs over them contiguously (CounterArray::walkStep); with
 * any other layout it falls back to the strided per-counter loop. Both
 * paths touch the same logical counters in the same order.
 */

#pragma once

#include <cstdint>
#include <utility>

#include "core/counter_array.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace smartref {

/** Walks a CounterArray in staggered segment order. */
class StaggerScheduler
{
  public:
    /**
     * Invoked when a touched counter has expired (refresh due). Built
     * per step from the caller's lambda; captures up to 24 bytes (the
     * Smart Refresh walk's) stay inline.
     */
    using RefreshFn = InlineFunction<void(std::uint64_t counterIndex), 24>;

    /**
     * @param counters  the array to walk (not owned)
     * @param segments  number of logical segments N (pending-queue size)
     * @param retention the (nominal) retention interval in ticks
     * @param periodBits granularity bits defining the counter access
     *        period P = retention / 2^periodBits; 0 means "use the
     *        counter width". The multi-rate extension stores wider
     *        counters than the walk granularity, so the two decouple.
     */
    StaggerScheduler(CounterArray &counters, std::uint32_t segments,
                     Tick retention, std::uint32_t periodBits = 0);

    /** Counter access period P = retention / 2^bits. */
    Tick counterAccessPeriod() const { return period_; }

    /** Interval between successive steps = P / countersPerSegment. */
    Tick stepInterval() const { return stepInterval_; }

    std::uint32_t segments() const { return segments_; }
    std::uint64_t countersPerSegment() const { return perSegment_; }

    /**
     * Apply the staggered initialisation of Figure 2(b)/3: counter at
     * in-segment position p starts at max - (p mod 2^bits), spreading
     * expiry times uniformly over the first retention interval. Also
     * rewinds the step position — call when (re-)enabling Smart Refresh.
     */
    void initialiseStaggered();

    /**
     * Execute one step: touch one counter in each segment, invoking
     * `refresh` for every expired one (at most `segments` calls).
     */
    void step(RefreshFn &&refresh) { step(0, std::move(refresh)); }

    /**
     * As above, with the current simulated time so the walk step can be
     * traced (category `counter`).
     */
    void step(Tick now, RefreshFn &&refresh);

    /** Number of steps executed so far. */
    std::uint64_t stepsExecuted() const { return steps_; }

    /** In-segment position the next step will touch. */
    std::uint64_t position() const { return position_; }

  private:
    CounterArray &counters_;
    std::uint32_t segments_;
    std::uint64_t perSegment_;
    Tick period_;
    Tick stepInterval_;
    std::uint64_t position_ = 0;
    std::uint64_t steps_ = 0;
};

} // namespace smartref
