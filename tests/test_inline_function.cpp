/**
 * @file
 * Contract tests for InlineFunction, the event queue's callback type:
 * inline storage for small captures, observable heap fallback for
 * oversized ones, move-only semantics and exactly-once destruction.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"

using namespace smartref;

namespace {

/** Counts live capture instances to catch leaks and double frees. */
struct Tracked
{
    static int live;
    int payload;

    explicit Tracked(int p) : payload(p) { ++live; }
    Tracked(const Tracked &o) noexcept : payload(o.payload) { ++live; }
    Tracked(Tracked &&o) noexcept : payload(o.payload) { ++live; }
    ~Tracked() { --live; }
};

int Tracked::live = 0;

/** Oversized variant of Tracked that cannot fit any inline buffer here. */
struct BigTracked : Tracked
{
    std::array<char, 256> pad{};
    using Tracked::Tracked;
};

} // namespace

TEST(InlineFunction, SmallCaptureStaysInline)
{
    int x = 41;
    InlineFunction<int(), 64> f([x] { return x + 1; });
    EXPECT_TRUE(static_cast<bool>(f));
    EXPECT_FALSE(f.onHeap());
    EXPECT_EQ(f(), 42);
}

TEST(InlineFunction, AcceptsMoveOnlyCaptures)
{
    auto p = std::make_unique<int>(7);
    InlineFunction<int(), 64> f([p = std::move(p)] { return *p; });
    EXPECT_FALSE(f.onHeap());
    EXPECT_EQ(f(), 7);
}

TEST(InlineFunction, OversizeCaptureFallsBackToHeap)
{
    std::array<char, 128> blob{};
    blob[0] = 'x';
    blob[127] = 'y';
    InlineFunction<int(), 64> f(
        [blob] { return blob[0] == 'x' && blob[127] == 'y' ? 1 : 0; });
    EXPECT_TRUE(f.onHeap());
    EXPECT_EQ(f(), 1);
}

TEST(InlineFunction, ThrowingMoveCaptureFallsBackToHeap)
{
    // A capture whose move constructor may throw cannot live inline (the
    // wrapper's move must stay noexcept), so it takes the heap path too.
    struct ThrowingMove
    {
        int v;
        explicit ThrowingMove(int x) : v(x) {}
        ThrowingMove(const ThrowingMove &o) : v(o.v) {}
        ThrowingMove(ThrowingMove &&o) noexcept(false) : v(o.v) {}
    };
    ThrowingMove t(5);
    InlineFunction<int(), 64> f([t] { return t.v; });
    EXPECT_TRUE(f.onHeap());
    EXPECT_EQ(f(), 5);
}

TEST(InlineFunction, MoveTransfersAndEmptiesSource)
{
    InlineFunction<int(), 64> a([] { return 3; });
    InlineFunction<int(), 64> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(b(), 3);

    InlineFunction<int(), 64> c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    EXPECT_EQ(c(), 3);
}

TEST(InlineFunction, InlineCaptureDestroyedExactlyOnce)
{
    ASSERT_EQ(Tracked::live, 0);
    {
        InlineFunction<int(), 64> f([t = Tracked(9)] { return t.payload; });
        EXPECT_FALSE(f.onHeap());
        EXPECT_EQ(f(), 9);
        InlineFunction<int(), 64> g(std::move(f));
        EXPECT_EQ(g(), 9);
        EXPECT_EQ(Tracked::live, 1);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, HeapCaptureDestroyedExactlyOnce)
{
    ASSERT_EQ(Tracked::live, 0);
    {
        InlineFunction<int(), 64> f(
            [t = BigTracked(4)] { return t.payload; });
        EXPECT_TRUE(f.onHeap());
        // Heap moves transfer the pointer: no extra instance is created.
        InlineFunction<int(), 64> g(std::move(f));
        EXPECT_EQ(Tracked::live, 1);
        EXPECT_EQ(g(), 4);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, AssignmentReleasesPreviousCapture)
{
    ASSERT_EQ(Tracked::live, 0);
    InlineFunction<int(), 64> f([t = Tracked(1)] { return t.payload; });
    EXPECT_EQ(Tracked::live, 1);
    f = InlineFunction<int(), 64>([t = Tracked(2)] { return t.payload; });
    EXPECT_EQ(Tracked::live, 1);
    EXPECT_EQ(f(), 2);
    f = nullptr;
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, InvokingEmptyPanics)
{
    InlineFunction<void(), 64> f;
    EXPECT_THROW(f(), std::logic_error);
}

TEST(InlineFunction, EventQueueCallbackFitsLargestSchedulerCapture)
{
    // The event queue promises at least 96 inline bytes; the largest
    // capture scheduled anywhere in the tree (a demand completion:
    // request + inline completion callback + tick) is exactly 96 bytes
    // with its 16-byte alignment, so the floor cannot drop.
    // memory_controller.cc static_asserts the fit and test_alloc_gate
    // pins onHeap() for it.
    static_assert(EventQueue::Callback::kInlineCapacity >= 96,
                  "event callbacks must hold >= 96 byte captures inline");
    struct Payload
    {
        unsigned char bytes[96];
    };
    Payload p{};
    p.bytes[95] = 7;
    EventQueue::Callback cb([p] { (void)p.bytes[95]; });
    EXPECT_FALSE(cb.onHeap());
}
