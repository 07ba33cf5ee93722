#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "sim/ring_queue.hh"

using namespace smartref;

TEST(RingQueue, FifoAcrossWrapAndGrowth)
{
    // Mirror a std::deque through pushes at both ends and pops that make
    // the ring wrap before and after each growth.
    RingQueue<int> ring;
    std::deque<int> ref;
    int next = 0;
    for (int round = 0; round < 200; ++round) {
        const int pushes = 1 + round % 5;
        for (int i = 0; i < pushes; ++i) {
            if ((round + i) % 3 == 0) {
                ring.push_front(int(next));
                ref.push_front(next);
            } else {
                ring.push_back(int(next));
                ref.push_back(next);
            }
            ++next;
        }
        const int pops = round % 4;
        for (int i = 0; i < pops && !ref.empty(); ++i) {
            ASSERT_EQ(ring.front(), ref.front());
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
    }
    while (!ref.empty()) {
        ASSERT_EQ(ring.front(), ref.front());
        ring.pop_front();
        ref.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RingQueue, KeepsCapacityOnceReached)
{
    RingQueue<int> ring;
    for (int i = 0; i < 6; ++i)
        ring.push_back(int(i));
    const std::size_t cap = ring.capacity();
    EXPECT_GE(cap, 6u);
    for (int cycle = 0; cycle < 1000; ++cycle) {
        ring.pop_front();
        ring.push_back(int(cycle));
    }
    EXPECT_EQ(ring.capacity(), cap);
    EXPECT_EQ(ring.size(), 6u);
}

TEST(RingQueue, HoldsMoveOnlyElements)
{
    RingQueue<std::unique_ptr<int>> ring;
    for (int i = 0; i < 9; ++i)
        ring.push_back(std::make_unique<int>(i));
    ring.push_front(std::make_unique<int>(-1));
    EXPECT_EQ(*ring.front(), -1);
    ring.pop_front();
    for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(*ring.front(), i);
        ring.pop_front();
    }
}
