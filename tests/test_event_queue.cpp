#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/system.hh"
#include "sim/event_queue.hh"
#include "sim/stats_json.hh"
#include "test_config.hh"

using namespace smartref;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Stats);
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(0); }, EventPriority::ClockTick);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), std::logic_error);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleAfter(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil(100);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutedCountTracks)
{
    EventQueue eq;
    for (int i = 1; i <= 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, SelfReschedulingStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> tick = [&] {
        ++count;
        eq.scheduleAfter(10, tick);
    };
    eq.schedule(0, tick);
    eq.runUntil(100);
    EXPECT_EQ(count, 11); // ticks at 0,10,...,100
    EXPECT_EQ(eq.pending(), 1u);
}

namespace {

/** Deterministic 64-bit LCG so stress tests need no <random> state. */
struct Lcg
{
    std::uint64_t s;
    std::uint64_t
    operator()()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 33;
    }
};

constexpr EventPriority kPrios[] = {EventPriority::ClockTick,
                                    EventPriority::Default,
                                    EventPriority::Stats};

struct Scheduled
{
    Tick when;
    int prio;
    int idx;
};

/** Expected firing order: stable sort by (when, prio) of creation order. */
std::vector<int>
expectedOrder(std::vector<Scheduled> recs)
{
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         return a.when != b.when ? a.when < b.when
                                                 : a.prio < b.prio;
                     });
    std::vector<int> order;
    for (const Scheduled &r : recs)
        order.push_back(r.idx);
    return order;
}

} // namespace

TEST(EventQueue, HeapStressMatchesStableSortOrder)
{
    EventQueue eq;
    Lcg rnd{12345};
    std::vector<Scheduled> recs;
    std::vector<int> fired;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const Tick when = rnd() % 500;
        const EventPriority prio = kPrios[rnd() % 3];
        recs.push_back({when, static_cast<int>(prio), i});
        eq.schedule(when, [&fired, i] { fired.push_back(i); }, prio);
    }
    eq.run();
    EXPECT_EQ(fired, expectedOrder(recs));
    EXPECT_EQ(eq.executed(), static_cast<std::uint64_t>(n));
}

TEST(EventQueue, InterleavedScheduleAndRunUntilKeepsOrder)
{
    // Alternate runUntil slices with fresh batches of future events; the
    // global order must still be the stable (when, prio) sort of
    // creation order, which exercises the min-buffer displacement logic
    // as later batches undercut the buffered minimum.
    EventQueue eq;
    Lcg rnd{99};
    std::vector<Scheduled> recs;
    std::vector<int> fired;
    int idx = 0;
    for (int slice = 0; slice < 20; ++slice) {
        const Tick base = eq.now();
        for (int i = 0; i < 50; ++i) {
            const Tick when = base + rnd() % 300;
            const EventPriority prio = kPrios[rnd() % 3];
            recs.push_back({when, static_cast<int>(prio), idx});
            const int id = idx++;
            eq.schedule(when, [&fired, id] { fired.push_back(id); }, prio);
        }
        eq.runUntil(base + 100);
    }
    eq.run();
    EXPECT_EQ(fired, expectedOrder(recs));
}

TEST(EventQueue, MinBufferDisplacement)
{
    // Each schedule below undercuts the currently buffered minimum, or
    // lands behind it; firing order must be unaffected either way.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(4); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(1); });
    eq.schedule(7, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, BurstFiresAtEveryInterval)
{
    EventQueue eq;
    std::vector<Tick> fires;
    eq.scheduleBurst(10, 5, 4, [&] { fires.push_back(eq.now()); });
    EXPECT_EQ(eq.pending(), 4u);
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{10, 15, 20, 25}));
    EXPECT_EQ(eq.executed(), 4u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, SingleOccurrenceBurstAllowsZeroInterval)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleBurst(7, 0, 1, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, BurstReservesContiguousSequenceNumbers)
{
    // A burst reserves one sequence number per occurrence up front, so
    // every occurrence beats a same-tick event scheduled after the
    // scheduleBurst call -- exactly as if each occurrence had been
    // scheduled individually at creation time.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleBurst(10, 10, 3, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.schedule(30, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 1, 3}));
}

TEST(EventQueue, BurstMatchesIndividualSchedules)
{
    auto runPattern = [](bool useBurst) {
        EventQueue eq;
        std::vector<int> order;
        eq.schedule(5, [&] { order.push_back(0); });
        if (useBurst) {
            eq.scheduleBurst(5, 5, 3, [&] { order.push_back(1); });
        } else {
            for (Tick t = 5; t <= 15; t += 5)
                eq.schedule(t, [&] { order.push_back(1); });
        }
        eq.schedule(5, [&] { order.push_back(2); });
        eq.schedule(15, [&] { order.push_back(3); });
        eq.run();
        return order;
    };
    EXPECT_EQ(runPattern(true), runPattern(false));
}

TEST(EventQueue, RunUntilStopsMidBurst)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleBurst(10, 10, 5, [&] { ++fired; });
    eq.runUntil(25);
    EXPECT_EQ(fired, 2); // occurrences at 10 and 20
    EXPECT_EQ(eq.pending(), 3u);
    eq.run();
    EXPECT_EQ(fired, 5);
}

TEST(EventQueue, BurstCallbackCanScheduleReentrantly)
{
    // Callbacks run from slab storage that must stay valid while they
    // schedule further work (which can grow the slab).
    EventQueue eq;
    int burstFires = 0;
    int extraFires = 0;
    eq.scheduleBurst(1, 1, 200, [&] {
        ++burstFires;
        if (burstFires % 3 == 0) {
            eq.scheduleAfter(1, [&] { ++extraFires; });
            eq.scheduleBurst(eq.now() + 1, 1, 2, [&] { ++extraFires; });
        }
    });
    eq.run();
    EXPECT_EQ(burstFires, 200);
    EXPECT_EQ(extraFires, 66 * 3);
}

TEST(EventQueue, ReservedEventRunsBetweenItsNeighbours)
{
    // A reserved sequence number orders the event after same-tick events
    // scheduled before the reservation and before those scheduled after
    // it, whenever the event itself is finally scheduled.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); });
    const std::uint64_t seq = eq.reserveSeq();
    eq.schedule(5, [&] { order.push_back(3); });
    eq.schedule(5, [&] { order.push_back(4); });
    eq.scheduleReserved(5, seq, [&] { order.push_back(2); });
    EXPECT_EQ(eq.pending(), 4u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, ReservedEventTakesTheFastPathBuffer)
{
    // Reserved before the only other pending event, the reserved event
    // undercuts it in the one-entry "next" buffer and demotes it.
    EventQueue eq;
    std::vector<int> order;
    const std::uint64_t seq = eq.reserveSeq();
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(20, [&] { order.push_back(3); });
    eq.scheduleReserved(10, seq, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ReservedEventReinsertedAtTheCurrentTick)
{
    // The lazy-timer pattern: a running event re-inserts the timer for a
    // reservation taken after it was scheduled. The timer lands in the
    // "next" buffer (it is the earliest pending event) and still runs
    // behind same-tick events that predate the reservation and ahead of
    // those that follow it.
    EventQueue eq;
    std::vector<int> order;
    std::uint64_t seq = 0;
    eq.schedule(10, [&] {
        order.push_back(1);
        eq.scheduleReserved(10, seq, [&] { order.push_back(3); });
    });
    eq.schedule(10, [&] { order.push_back(2); });
    seq = eq.reserveSeq();
    eq.schedule(10, [&] { order.push_back(4); });
    eq.schedule(11, [&] { order.push_back(5); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueue, ReservedEventKeepsPriorityOrder)
{
    EventQueue eq;
    std::vector<int> order;
    const std::uint64_t seq = eq.reserveSeq();
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::ClockTick);
    eq.schedule(5, [&] { order.push_back(3); }, EventPriority::Stats);
    eq.scheduleReserved(5, seq, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, UnreservedSequenceNumberPanics)
{
    EventQueue eq;
    const std::uint64_t seq = eq.reserveSeq();
    EXPECT_THROW(eq.scheduleReserved(5, seq + 1, [] {}), std::logic_error);
}

TEST(EventQueue, LazyRearmMatchesEagerTimers)
{
    // Randomised re-arm stream: "eager" schedules one event per arm and
    // lets stale ones no-op; "lazy" keeps one outstanding event and
    // moves it to the newest arm's reserved slot when it fires. Other
    // same-tick traffic shares the queue. Both must log the same live
    // timer firings in the same place in the total order. The timeout
    // is fixed, as the controller's is, so deadlines never move back.
    auto runPattern = [](bool lazy) {
        EventQueue eq;
        std::vector<std::pair<Tick, int>> log;
        Tick deadline = 0;
        std::uint64_t gen = 0, armSeq = 0, timerSeq = 0;
        bool pending = false;
        std::function<void()> fire = [&] {
            if (armSeq != timerSeq) {
                timerSeq = armSeq;
                eq.scheduleReserved(deadline, armSeq, [&] { fire(); });
                return;
            }
            pending = false;
            log.push_back({eq.now(), -1});
        };
        constexpr Tick kAfter = 25;
        auto arm = [&] {
            ++gen;
            if (!lazy) {
                eq.scheduleAfter(kAfter, [&, g = gen] {
                    if (g == gen)
                        log.push_back({eq.now(), -1});
                });
                return;
            }
            deadline = eq.now() + kAfter;
            armSeq = eq.reserveSeq();
            if (pending)
                return;
            pending = true;
            timerSeq = armSeq;
            eq.scheduleReserved(deadline, armSeq, [&] { fire(); });
        };
        std::uint64_t state = 12345;
        auto next = [&state] {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            return state >> 33;
        };
        // Visits re-arm at random and spawn follow-ups during the run,
        // so traffic is also scheduled between an arm and the moment
        // its timer is re-inserted, often for the deadline's own tick.
        std::function<void(int, int)> visit = [&](int id, int depth) {
            log.push_back({eq.now(), id});
            const std::uint64_t r = next();
            if (r % 2 == 0)
                arm();
            if (depth < 3 && r % 3 != 0) {
                eq.scheduleAfter(next() % 50, [&, id, depth] {
                    visit(id + 1000, depth + 1);
                });
            }
        };
        for (int i = 0; i < 300; ++i)
            eq.schedule(next() % 6000, [&, i] { visit(i, 0); });
        eq.run();
        return log;
    };
    const auto eager = runPattern(false);
    EXPECT_EQ(eager, runPattern(true));
    EXPECT_GT(std::count_if(eager.begin(), eager.end(),
                            [](const auto &e) { return e.second < 0; }),
              10);
}

namespace {

/** One fixed-seed Smart-Refresh run, stats dumped as JSON. */
std::string
runFixedSeedStats(int slices)
{
    SystemConfig cfg;
    cfg.dram = tcfg::tinyConfig();
    cfg.policy = PolicyKind::Smart;
    cfg.smart.autoReconfigure = false;

    System sys(cfg);
    WorkloadParams wp;
    wp.name = "det";
    wp.footprintRows = cfg.dram.org.totalRows() / 2;
    wp.rowVisitsPerSecond = 2e6;
    wp.accessesPerVisit = 4;
    wp.randomJumpProb = 0.2;
    wp.readFraction = 0.7;
    wp.interArrivalJitter = 0.5;
    wp.seed = 17;
    sys.addWorkload(wp);

    const Tick total = 3 * cfg.dram.timing.retention;
    for (int s = 0; s < slices; ++s)
        sys.run(total / slices);

    std::ostringstream os;
    writeStatsJson(sys, os);
    return os.str();
}

} // namespace

TEST(EventQueueDeterminism, FixedSeedRunsAreByteIdentical)
{
    const std::string once = runFixedSeedStats(1);
    EXPECT_EQ(once, runFixedSeedStats(1));
}

TEST(EventQueueDeterminism, SlicedRunUntilMatchesSingleRun)
{
    // Driving the same simulation through many runUntil() slices must
    // not perturb event order or any statistic: the min-buffer fast
    // path and the heap see very different traffic in the two shapes.
    // Two stats are energy integrals accumulated at run() boundaries
    // (background standby, counter SRAM); slicing regroups their float
    // sums, so those scalars may differ by rounding only -- every
    // event-order-derived stat must be byte-exact.
    const std::string once = runFixedSeedStats(1);
    const std::string sliced = runFixedSeedStats(16);
    std::istringstream ia(once);
    std::istringstream ib(sliced);
    std::string la;
    std::string lb;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(ia, la));
        const bool gb = static_cast<bool>(std::getline(ib, lb));
        ASSERT_EQ(ga, gb) << "stats dumps differ in length";
        if (!ga)
            break;
        if (la == lb)
            continue;
        ASSERT_NE(la.find("\"kind\": \"scalar\""), std::string::npos) << la;
        const auto va = la.find("\"value\": ");
        ASSERT_NE(va, std::string::npos) << la;
        ASSERT_EQ(la.substr(0, va), lb.substr(0, va));
        const auto da = la.find("\"desc\"");
        const auto db = lb.find("\"desc\"");
        ASSERT_NE(da, std::string::npos) << la;
        ASSERT_EQ(la.substr(da), lb.substr(db));
        const double xa = std::stod(la.substr(va + 9));
        const double xb = std::stod(lb.substr(va + 9));
        const double tol =
            1e-12 * std::max(std::abs(xa), std::abs(xb));
        EXPECT_NEAR(xa, xb, tol) << la;
    }
}
