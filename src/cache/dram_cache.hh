/**
 * @file
 * The 3D die-stacked DRAM cache (paper Sections 4.5, 6, 7.2).
 *
 * A direct-mapped cache whose data array is a DRAM module (the stacked
 * die, with its own memory controller and refresh domain) and whose tag
 * array is SRAM on the processor die. An access first checks the tags;
 * a hit becomes a read/write on the 3D DRAM, a miss fetches the line
 * from main memory, fills it into the 3D DRAM and writes back a dirty
 * victim. Tags are updated synchronously (no MSHR modelling) — the
 * simplification only merges the occasional overlapping miss and does
 * not affect refresh behaviour.
 *
 * The per-access path allocates nothing: the completion state handed to
 * a controller fits MemCallback's inline buffer. A caller-supplied
 * completion callback (only tests pass one) waits in a recycled side
 * slot rather than being nested inside that state.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/sram_energy_model.hh"
#include "ctrl/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace smartref {

/** Configuration of the 3D DRAM cache front-end. */
struct DramCacheConfig
{
    std::uint32_t lineSize = 64;
    Tick tagLatency = 3 * kNanosecond;  ///< on-die SRAM tag lookup
    double tagBytesPerEntry = 4.0;      ///< tag + valid + dirty storage
    SramEnergyParams tagSram{};
};

/** Direct-mapped DRAM cache in front of main memory. */
class DramCache : public StatGroup
{
  public:
    /**
     * @param dataCtrl controller of the 3D DRAM holding the data array
     * @param mainMem  controller of the backing main memory
     */
    DramCache(MemoryController &dataCtrl, MemoryController &mainMem,
              const DramCacheConfig &cfg, EventQueue &eq,
              StatGroup *parent);

    /** Run one access (post-L2 demand) through the cache. */
    void access(Addr addr, bool write, MemCallback cb = nullptr);

    std::uint64_t numLines() const { return numLines_; }

    /** @name Statistics. */
    ///@{
    std::uint64_t hits() const { return asU64(hits_); }
    std::uint64_t misses() const { return asU64(misses_); }
    std::uint64_t writebacks() const { return asU64(writebacks_); }
    double
    hitRate() const
    {
        const double total = hits_.value() + misses_.value();
        return total > 0.0 ? hits_.value() / total : 0.0;
    }
    /** Mean demand latency through the cache (ticks). */
    double avgLatency() const { return latency_.mean(); }
    double latencySum() const { return latencySum_.value(); }
    std::uint64_t demandAccesses() const { return asU64(accesses_); }
    /** Tag-array SRAM energy (J); identical across refresh policies. */
    double tagEnergy() const { return tagSram_.totalEnergy(); }
    ///@}

    /**
     * Completion of a hit in the stacked DRAM. Named, like MissDone, so
     * tests can pin that it fits MemCallback's inline buffer.
     */
    struct HitDone
    {
        DramCache *cache;
        Tick arrival;
        std::uint32_t side; ///< caller callback slot, or kNoSide

        void
        operator()(const MemRequest &req, Tick done) const
        {
            cache->complete(arrival, side, req, done);
        }
    };

    /**
     * Completion of a main-memory fetch: the demand completes, then the
     * line is filled into the stacked DRAM off the critical path. The
     * line's cache address is recomputed from req.addr.
     */
    struct MissDone
    {
        DramCache *cache;
        Tick arrival;
        std::uint32_t side;

        void
        operator()(const MemRequest &req, Tick done) const
        {
            cache->complete(arrival, side, req, done);
            cache->fill(req.addr, done);
        }
    };

  private:
    static std::uint64_t
    asU64(const Scalar &s)
    {
        return static_cast<std::uint64_t>(s.value());
    }

    /** Tag-entry bits: an entry is tag << 2 | dirty << 1 | valid. */
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;
    /** The side slot of a demand whose caller passed no callback. */
    static constexpr std::uint32_t kNoSide =
        std::numeric_limits<std::uint32_t>::max();

    std::uint64_t
    lineIndex(Addr addr) const
    {
        return (addr / cfg_.lineSize) % numLines_;
    }
    /** Record a demand's latency and run its caller callback, if any. */
    void complete(Tick arrival, std::uint32_t side, const MemRequest &req,
                  Tick done);
    /** Fill the line holding `addr` into the stacked DRAM at `done`. */
    void fill(Addr addr, Tick done);

    MemoryController &dataCtrl_;
    MemoryController &mainMem_;
    DramCacheConfig cfg_;
    EventQueue &eq_;
    std::uint64_t numLines_;
    /**
     * One packed 8-byte entry per line (see kValid). The 3d64 cache has
     * 1M lines and every constructed system zeroes the array, so packing
     * halves that work and its footprint.
     */
    std::vector<std::uint64_t> tags_;
    /** Caller callbacks of in-flight demands, recycled via freeSides_. */
    std::vector<MemCallback> sides_;
    std::vector<std::uint32_t> freeSides_;
    SramEnergyModel tagSram_;

    Scalar accesses_;
    Scalar hits_;
    Scalar misses_;
    Scalar writebacks_;
    Scalar fills_;
    Histogram latency_;
    Scalar latencySum_;
};

} // namespace smartref
