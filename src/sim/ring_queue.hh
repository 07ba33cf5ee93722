/**
 * @file
 * A growable double-ended FIFO on a power-of-two ring buffer.
 *
 * std::deque allocates and frees a node every few elements as a queue
 * breathes, even when its length stays bounded. RingQueue keeps the
 * largest capacity it has needed, so a queue that reaches its working
 * length once then runs without allocating. Elements must be default-
 * constructible and movable; popped slots are left moved-from.
 */

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace smartref {

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    T &
    front()
    {
        SMARTREF_ASSERT(size_ != 0, "front() of an empty RingQueue");
        return slots_[head_];
    }

    void
    push_back(T &&value)
    {
        growIfFull();
        slots_[(head_ + size_) & mask()] = std::move(value);
        ++size_;
    }

    void
    push_front(T &&value)
    {
        growIfFull();
        head_ = (head_ + slots_.size() - 1) & mask();
        slots_[head_] = std::move(value);
        ++size_;
    }

    void
    pop_front()
    {
        SMARTREF_ASSERT(size_ != 0, "pop_front() of an empty RingQueue");
        head_ = (head_ + 1) & mask();
        --size_;
    }

  private:
    std::size_t mask() const { return slots_.size() - 1; }

    void
    growIfFull()
    {
        if (size_ < slots_.size())
            return;
        std::vector<T> bigger(slots_.empty() ? 4 : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(slots_[(head_ + i) & mask()]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace smartref
