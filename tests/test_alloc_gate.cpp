/**
 * Hot-path allocation gate.
 *
 * This binary replaces the global operator new with a counting wrapper
 * (the replacement is program-wide, which is why the gate lives in its
 * own test executable) and checks that a simulation's measured window
 * runs without heap traffic: at most one allocation per 1,000 demand
 * accesses, against about ten per access when completion callbacks,
 * command continuations and bank queues allocated. What may remain is
 * growth of containers that have not yet reached their working size.
 *
 * It also pins that the callbacks the hot path builds fit their inline
 * buffers, so a capture that outgrows one fails here by name instead of
 * only as a count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cache/dram_cache.hh"
#include "core/smart_refresh.hh"
#include "core/stagger_scheduler.hh"
#include "ctrl/memory_controller.hh"
#include "harness/system.hh"
#include "harness/threed_system.hh"
#include "trace/benchmark_profiles.hh"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

} // namespace

void *
operator new(std::size_t n)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace smartref;

namespace {

constexpr Tick kWarmup = 4 * kMillisecond;
constexpr Tick kMeasure = 8 * kMillisecond;

std::uint64_t
demandAccesses(MemoryController &ctrl)
{
    return ctrl.demandReads() + ctrl.demandWrites();
}

/** Allocations and demand accesses of one run(measure) window. */
struct Window
{
    std::uint64_t allocations = 0;
    std::uint64_t accesses = 0;
};

Window
measureConventional(PolicyKind policy)
{
    SystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = policy;
    System sys(cfg);
    for (const auto &wp :
         conventionalParams(findProfile("mummer"), cfg.dram,
                            absRowScaleFor(cfg.dram.org), 42))
        sys.addWorkload(wp);
    sys.run(kWarmup);
    const std::uint64_t accesses0 = demandAccesses(sys.controller());
    const std::uint64_t allocs0 = gAllocations.load();
    sys.run(kMeasure);
    Window w;
    w.allocations = gAllocations.load() - allocs0;
    w.accesses = demandAccesses(sys.controller()) - accesses0;
    return w;
}

Window
measureThreeD(PolicyKind policy)
{
    ThreeDSystemConfig cfg;
    cfg.threeDPolicy = policy;
    ThreeDSystem sys(cfg);
    for (const auto &wp : threeDParams(findProfile("mummer"), cfg.threeD, 42))
        sys.addWorkload(wp);
    sys.run(kWarmup);
    // Every cache access reaches the stacked die's controller; misses
    // add main-memory traffic on top, which the gate does not credit.
    const std::uint64_t accesses0 = sys.cache().demandAccesses();
    const std::uint64_t allocs0 = gAllocations.load();
    sys.run(kMeasure);
    Window w;
    w.allocations = gAllocations.load() - allocs0;
    w.accesses = sys.cache().demandAccesses() - accesses0;
    return w;
}

void
expectAllocationFree(const Window &w)
{
    ASSERT_GT(w.accesses, 10000u) << "window too short to gate";
    EXPECT_LE(w.allocations * 1000, w.accesses)
        << w.allocations << " allocations over " << w.accesses
        << " demand accesses";
}

} // namespace

TEST(AllocGate, CounterSeesAllocations)
{
    // Call the function directly: new-expressions may be elided.
    const std::uint64_t before = gAllocations.load();
    void *p = ::operator new(16);
    EXPECT_EQ(gAllocations.load(), before + 1);
    ::operator delete(p);
}

TEST(AllocGate, ConventionalComparisonMeasureWindow)
{
    expectAllocationFree(measureConventional(PolicyKind::Cbr));
    expectAllocationFree(measureConventional(PolicyKind::Smart));
}

TEST(AllocGate, ThreeDComparisonMeasureWindow)
{
    expectAllocationFree(measureThreeD(PolicyKind::Cbr));
    expectAllocationFree(measureThreeD(PolicyKind::Smart));
}

TEST(AllocGate, HotPathCallbacksStayInline)
{
    MemCallback hit(DramCache::HitDone{nullptr, 0, 0});
    MemCallback miss(DramCache::MissDone{nullptr, 0, 0});
    EXPECT_FALSE(hit.onHeap());
    EXPECT_FALSE(miss.onHeap());

    // The controller's completion event carrying a 3D-cache callback.
    EventQueue::Callback completion(MemoryController::CompletionEvent{
        MemRequest{}, MemCallback(DramCache::HitDone{nullptr, 0, 0}), 0});
    EXPECT_FALSE(completion.onHeap());

    std::uint32_t expired = 0;
    StaggerScheduler::RefreshFn walk(
        SmartRefreshPolicy::WalkVisitor{nullptr, &expired, 0});
    EXPECT_FALSE(walk.onHeap());
}
