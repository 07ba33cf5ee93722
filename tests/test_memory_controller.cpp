#include <gtest/gtest.h>

#include "ctrl/memory_controller.hh"
#include "test_config.hh"

using namespace smartref;

namespace {

/** Captures policy notifications for inspection. */
class RecordingPolicy : public RefreshPolicy
{
  public:
    explicit RecordingPolicy(StatGroup *parent)
        : RefreshPolicy("refresh.recording", parent)
    {
    }

    void start() override {}

    void
    onRowActivated(std::uint32_t rank, std::uint32_t bank,
                   std::uint32_t row) override
    {
        activated.push_back({rank, bank, row});
    }

    void
    onRowClosed(std::uint32_t rank, std::uint32_t bank,
                std::uint32_t row) override
    {
        closed.push_back({rank, bank, row});
    }

    void
    onRefreshIssued(const RefreshRequest &req) override
    {
        issued.push_back(req);
    }

    std::string policyName() const override { return "recording"; }

    struct Coord
    {
        std::uint32_t rank, bank, row;
    };
    std::vector<Coord> activated;
    std::vector<Coord> closed;
    std::vector<RefreshRequest> issued;
};

} // namespace

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : root("root"),
          dram(tcfg::tinyConfig(), eq, &root),
          ctrl(dram, eq, ControllerConfig{}, &root),
          policy(&root)
    {
        ctrl.setRefreshPolicy(&policy);
    }

    Addr
    addrOf(std::uint64_t blockRow, std::uint64_t offset = 0) const
    {
        return blockRow * dram.config().org.rowBytes() + offset;
    }

    EventQueue eq;
    StatGroup root;
    DramModule dram;
    MemoryController ctrl;
    RecordingPolicy policy;
};

TEST_F(ControllerTest, FirstAccessIsRowMiss)
{
    ctrl.access(addrOf(0), false);
    eq.runUntil(kMicrosecond);
    EXPECT_EQ(ctrl.rowMisses(), 1u);
    EXPECT_EQ(ctrl.demandReads(), 1u);
    EXPECT_EQ(policy.activated.size(), 1u);
}

TEST_F(ControllerTest, SameRowBackToBackIsHit)
{
    ctrl.access(addrOf(0, 0), false);
    ctrl.access(addrOf(0, 64), false);
    eq.runUntil(kMicrosecond / 10); // before the idle-precharge timer
    EXPECT_EQ(ctrl.rowMisses(), 1u);
    EXPECT_EQ(ctrl.rowHits(), 1u);
}

TEST_F(ControllerTest, DifferentRowSameBankConflicts)
{
    const auto banks = dram.config().org.banks;
    ctrl.access(addrOf(0), false);
    ctrl.access(addrOf(banks), false); // next row in bank 0
    eq.runUntil(kMicrosecond / 10);
    EXPECT_EQ(ctrl.rowConflicts(), 1u);
    // The conflict closed the first row: the policy must see it.
    ASSERT_EQ(policy.closed.size(), 1u);
    EXPECT_EQ(policy.closed[0].row, 0u);
}

TEST_F(ControllerTest, CompletionCallbackDeliversLatency)
{
    Tick completion = 0;
    ctrl.access(addrOf(3), false,
                [&](const MemRequest &, Tick done) { completion = done; });
    eq.runUntil(kMicrosecond);
    const auto &t = dram.config().timing;
    EXPECT_EQ(completion, t.tRCD + t.tCL + t.tBurst);
    EXPECT_GT(ctrl.avgLatency(), 0.0);
}

TEST_F(ControllerTest, WritesAreCounted)
{
    ctrl.access(addrOf(1), true);
    eq.runUntil(kMicrosecond);
    EXPECT_EQ(ctrl.demandWrites(), 1u);
    EXPECT_EQ(dram.writes(), 1u);
}

TEST_F(ControllerTest, IdlePrechargeClosesPageAndNotifies)
{
    ctrl.access(addrOf(0), false);
    eq.runUntil(10 * kMicrosecond); // past the idle timeout
    EXPECT_FALSE(dram.isBankOpen(0, 0));
    ASSERT_EQ(policy.closed.size(), 1u);
    EXPECT_EQ(policy.closed[0].row, 0u);
    EXPECT_TRUE(ctrl.idle());
}

TEST_F(ControllerTest, IdlePrechargeCanBeDisabled)
{
    ControllerConfig cfg;
    cfg.idlePrechargeAfter = 0;
    MemoryController ctrl2(dram, eq, cfg, &root);
    ctrl2.access(addrOf(0), false);
    eq.runUntil(10 * kMicrosecond);
    EXPECT_TRUE(dram.isBankOpen(0, 0));
}

TEST_F(ControllerTest, RefreshRequestIssuesAndNotifies)
{
    RefreshRequest req;
    req.rank = 0;
    req.bank = 1;
    req.row = 5;
    req.created = eq.now();
    ctrl.pushRefresh(req);
    eq.runUntil(kMicrosecond);
    ASSERT_EQ(policy.issued.size(), 1u);
    EXPECT_EQ(policy.issued[0].row, 5u);
    EXPECT_EQ(dram.rasOnlyRefreshes(), 1u);
    EXPECT_EQ(ctrl.refreshBacklog(), 0u);
}

TEST_F(ControllerTest, CbrRefreshResolvedViaMirror)
{
    for (int i = 0; i < 3; ++i) {
        RefreshRequest req;
        req.rank = 0;
        req.cbr = true;
        req.created = eq.now();
        ctrl.pushRefresh(req);
    }
    eq.runUntil(kMicrosecond);
    ASSERT_EQ(policy.issued.size(), 3u);
    // Mirror walks the same (bank, row) order as a device CBR counter.
    EXPECT_EQ(policy.issued[0].bank, 0u);
    EXPECT_EQ(policy.issued[1].bank, 1u);
    EXPECT_EQ(policy.issued[2].bank, 0u);
    EXPECT_EQ(policy.issued[2].row, 1u);
}

TEST_F(ControllerTest, RefreshToOpenBankClosesItAndNotifies)
{
    ctrl.access(addrOf(0), false); // opens bank 0 row 0
    eq.runUntil(200); // demand issued, row open, before idle precharge
    RefreshRequest req;
    req.rank = 0;
    req.bank = 0;
    req.row = 9;
    req.created = eq.now();
    ctrl.pushRefresh(req);
    eq.runUntil(eq.now() + 10 * kMicrosecond);
    // The refresh implicitly closed row 0.
    bool sawClose = false;
    for (const auto &c : policy.closed)
        sawClose |= (c.row == 0);
    EXPECT_TRUE(sawClose);
}

TEST_F(ControllerTest, BacklogTracksOutstandingRefreshes)
{
    for (std::uint32_t i = 0; i < 5; ++i) {
        RefreshRequest req;
        req.rank = 0;
        req.bank = 0;
        req.row = i;
        req.created = eq.now();
        ctrl.pushRefresh(req);
    }
    EXPECT_GE(ctrl.maxRefreshBacklog(), 4u);
    eq.runUntil(kMicrosecond * 10);
    EXPECT_EQ(ctrl.refreshBacklog(), 0u);
}

TEST_F(ControllerTest, LatencySumMatchesHistogram)
{
    for (int i = 0; i < 4; ++i)
        ctrl.access(addrOf(i), false);
    eq.runUntil(kMicrosecond * 10);
    const auto &h = ctrl.latencyHistogram();
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_NEAR(ctrl.latencySumTicks(), h.mean() * 4.0, 1.0);
}

TEST_F(ControllerTest, MapperMatchesConfigScheme)
{
    EXPECT_EQ(ctrl.mapper().scheme(), AddressScheme::RowRankBankColumn);
    EXPECT_EQ(ctrl.mapper().capacityBytes(),
              dram.config().org.capacityBytes());
}

namespace {

/** Records the tick and row of every page close. */
class CloseTimeline : public RefreshPolicy
{
  public:
    CloseTimeline(EventQueue &eq, StatGroup *parent)
        : RefreshPolicy("refresh.timeline", parent), eq_(eq)
    {
    }

    void start() override {}

    void
    onRowClosed(std::uint32_t, std::uint32_t bank,
                std::uint32_t row) override
    {
        closes.push_back({eq_.now(), bank, row});
    }

    std::string policyName() const override { return "timeline"; }

    struct Close
    {
        Tick tick;
        std::uint32_t bank, row;

        bool
        operator==(const Close &o) const
        {
            return tick == o.tick && bank == o.bank && row == o.row;
        }
    };
    std::vector<Close> closes;

  private:
    EventQueue &eq_;
};

} // namespace

TEST(ControllerIdleTimer, ScriptedRearmsMatchRecordedTimeline)
{
    // A scripted stream on the tiny module with subarray-parallel
    // refresh: bank 0 is re-armed several times within the 200 ns idle
    // window, and twice at one tick (a column burst finishes, then a
    // refresh to another subarray issues at once and leaves the page
    // open). The idle-precharge count and every page-close tick are
    // pinned to the values the eager one-timer-per-arm controller
    // produced, so the lazy timer must close exactly the same pages at
    // exactly the same ticks.
    EventQueue eq;
    StatGroup root("root");
    DramConfig cfg = tcfg::tinyConfig();
    cfg.parallelism = RefreshParallelism::Sarp;
    DramModule dram(cfg, eq, &root);
    MemoryController ctrl(dram, eq, ControllerConfig{}, &root);
    CloseTimeline policy(eq, &root);
    ctrl.setRefreshPolicy(&policy);
    const std::uint64_t rowBytes = cfg.org.rowBytes();
    const std::uint32_t banks = cfg.org.banks;
    const Tick tRCD = cfg.timing.tRCD;

    auto accessAt = [&](Tick when, std::uint64_t blockRow,
                        std::uint64_t offset = 0) {
        eq.schedule(when, [&ctrl, addr = blockRow * rowBytes + offset] {
            ctrl.access(addr, false);
        });
    };
    auto refreshAt = [&](Tick when, std::uint32_t bank, std::uint32_t row) {
        eq.schedule(when, [&ctrl, &eq, bank, row] {
            RefreshRequest req;
            req.bank = bank;
            req.row = row;
            req.created = eq.now();
            ctrl.pushRefresh(req);
        });
    };

    // Bank 0, row 0: the column issues at tRCD and arms the timer, and
    // row hits re-arm it within the idle window.
    accessAt(0, 0);
    accessAt(50 * kNanosecond, 0, 64);
    accessAt(120 * kNanosecond, 0, 128);
    accessAt(190 * kNanosecond, 0, 192);
    // Deadline race, scheduled before the arm at 190 ns: the access runs
    // ahead of the 390 ns timer, hits and re-arms the bank.
    accessAt(390 * kNanosecond, 0, 256);
    // Bank 1: its column issues at 115 ns; a refresh of row 40 (another
    // subarray) issues at once behind it, leaves the page open and
    // re-arms the bank a second time at that tick.
    accessAt(100 * kNanosecond, 1);
    eq.schedule(100 * kNanosecond,
                [&] { refreshAt(100 * kNanosecond + tRCD, 1, 40); });
    // Deadline race, scheduled after both arms but before the timer of
    // the first arm fires and moves to the second arm's slot: the timer
    // closes the page first, and the access misses.
    eq.schedule(200 * kNanosecond,
                [&] { accessAt(315 * kNanosecond, 1, 64); });
    // Bank 0, row 1: re-armed by hits and a refresh of another subarray.
    accessAt(700 * kNanosecond, banks);
    accessAt(850 * kNanosecond, banks, 64);
    refreshAt(860 * kNanosecond, 0, 50);
    accessAt(1000 * kNanosecond, banks, 128);
    // Deadline race, scheduled after the arm at 1000 ns but before the
    // outstanding timer re-inserts itself at 1060 ns: the timer closes
    // row 1 first, and the access misses.
    eq.schedule(1030 * kNanosecond,
                [&] { accessAt(1200 * kNanosecond, banks, 192); });
    eq.runUntil(5 * kMicrosecond);

    const auto *idle =
        dynamic_cast<const Scalar *>(ctrl.findStat("idlePrecharges"));
    ASSERT_NE(idle, nullptr);
    EXPECT_EQ(idle->value(), 5.0);
    // Every close is an idle precharge: SARP kept both refreshes' pages
    // open, and no demand conflicted.
    const std::vector<CloseTimeline::Close> expected = {
        {315 * kNanosecond, 1, 0},
        {545 * kNanosecond, 1, 0},
        {590 * kNanosecond, 0, 0},
        {1200 * kNanosecond, 0, 1},
        {1430 * kNanosecond, 0, 1},
    };
    EXPECT_EQ(policy.closes, expected);
    EXPECT_EQ(ctrl.rowConflicts(), 0u);
    EXPECT_TRUE(ctrl.idle());
}
