#include "cache/dram_cache.hh"

#include "sim/logging.hh"

namespace smartref {

DramCache::DramCache(MemoryController &dataCtrl, MemoryController &mainMem,
                     const DramCacheConfig &cfg, EventQueue &eq,
                     StatGroup *parent)
    : StatGroup("dramCache", parent),
      dataCtrl_(dataCtrl),
      mainMem_(mainMem),
      cfg_(cfg),
      eq_(eq),
      numLines_(dataCtrl.dram().config().org.capacityBytes() /
                cfg.lineSize),
      tags_(numLines_),
      tagSram_(static_cast<double>(numLines_) * cfg.tagBytesPerEntry /
                   1024.0,
               cfg.tagSram, this),
      accesses_(this, "accesses", "demand accesses"),
      hits_(this, "hits", "tag hits"),
      misses_(this, "misses", "tag misses"),
      writebacks_(this, "writebacks", "dirty victim writebacks"),
      fills_(this, "fills", "lines filled from main memory"),
      latency_(this, "latency", "demand latency through the cache (ticks)",
               0.0, 2.0e6, 64),
      latencySum_(this, "latencySum", "sum of demand latencies (ticks)")
{
    SMARTREF_ASSERT(numLines_ > 0, "cache smaller than one line");
}

void
DramCache::access(Addr addr, bool write, MemCallback cb)
{
    ++accesses_;
    const Tick arrival = eq_.now();
    const std::uint64_t lineNo = addr / cfg_.lineSize;
    const std::uint64_t index = lineNo % numLines_;
    const std::uint64_t tag = lineNo / numLines_;
    const Addr lineInCache = index * cfg_.lineSize;
    const Addr offset = addr % cfg_.lineSize;

    tagSram_.recordTraffic(1, 0); // lookup

    std::uint32_t side = kNoSide;
    if (cb) {
        if (freeSides_.empty()) {
            side = static_cast<std::uint32_t>(sides_.size());
            sides_.emplace_back();
        } else {
            side = freeSides_.back();
            freeSides_.pop_back();
        }
        sides_[side] = std::move(cb);
    }

    std::uint64_t &entry = tags_[index];
    if ((entry & kValid) && (entry >> 2) == tag) {
        ++hits_;
        if (write) {
            entry |= kDirty;
            tagSram_.recordTraffic(0, 1);
        }
        // Data lives in the stacked DRAM: hit becomes a 3D access.
        const Addr target = lineInCache + offset;
        eq_.scheduleAfter(cfg_.tagLatency,
                          [this, target, write, arrival, side] {
            dataCtrl_.access(target, write, HitDone{this, arrival, side});
        });
        return;
    }

    // Miss: evict (writeback if dirty), fetch from main memory, fill.
    ++misses_;
    if ((entry & kValid) && (entry & kDirty)) {
        ++writebacks_;
        const Addr victimAddr =
            ((entry >> 2) * numLines_ + index) * cfg_.lineSize;
        eq_.scheduleAfter(cfg_.tagLatency, [this, victimAddr]() {
            mainMem_.access(victimAddr, true);
        });
    }
    entry = tag << 2 | (write ? kDirty : 0) | kValid;
    tagSram_.recordTraffic(0, 1);

    eq_.scheduleAfter(cfg_.tagLatency, [this, addr, arrival, side] {
        mainMem_.access(addr, false, MissDone{this, arrival, side});
    });
}

void
DramCache::complete(Tick arrival, std::uint32_t side, const MemRequest &req,
                    Tick done)
{
    const Tick lat = done - arrival;
    latency_.sample(static_cast<double>(lat));
    latencySum_ += static_cast<double>(lat);
    if (side == kNoSide)
        return;
    // Release the slot before calling: the callback may re-enter
    // access() and claim (or grow) the side slots.
    MemCallback cb = std::move(sides_[side]);
    freeSides_.push_back(side);
    cb(req, done);
}

void
DramCache::fill(Addr addr, Tick done)
{
    ++fills_;
    const Addr lineInCache = lineIndex(addr) * cfg_.lineSize;
    eq_.schedule(done, [this, lineInCache]() {
        dataCtrl_.access(lineInCache, true);
    });
}

} // namespace smartref
