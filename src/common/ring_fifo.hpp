// A FIFO on one power-of-two ring buffer: the storage behind the machine
// model's packet and transfer queues (router output ports, both NoCs, a
// core's interrupt queues).
//
// The hardware these queues model holds a few packets in fixed buffers, and
// most of the model's queues never hold a packet at all.  So a RingFifo
// takes storage on its first push, doubles when full, and keeps its storage
// when it drains: building a chip allocates nothing for its queues, and a
// queue in steady state allocates nothing per element.
//
// Popping or clearing destroys the element at once, so a queued callable
// (a System NoC completion) releases what it captured when it leaves the
// queue, not when its slot is next reused.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace spinn {

template <typename T>
class RingFifo {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "RingFifo: growth relocates elements and must not throw");

 public:
  RingFifo() = default;
  RingFifo(const RingFifo&) = delete;
  RingFifo& operator=(const RingFifo&) = delete;
  ~RingFifo() {
    clear();
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, capacity_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots allocated: 0 until the first push, then a power of two.
  std::size_t capacity() const { return capacity_; }

  /// The i-th element from the front (i < size()).
  const T& operator[](std::size_t i) const { return data_[slot(i)]; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    std::construct_at(data_ + slot(size_), std::move(value));
    ++size_;
  }

  /// Queue `value` ahead of every element (an output port putting back the
  /// packet its failed link could not send).
  void push_front(T value) {
    if (size_ == capacity_) grow();
    head_ = (head_ + capacity_ - 1) & (capacity_ - 1);
    std::construct_at(data_ + head_, std::move(value));
    ++size_;
  }

  /// Remove the front element (the queue must not be empty) and return it.
  T pop_front() {
    T* front = data_ + head_;
    T value = std::move(*front);
    std::destroy_at(front);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    return value;
  }

  /// Destroy every element; the storage stays for the next push.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) std::destroy_at(data_ + slot(i));
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Covers a router output port's default depth in one allocation.
  static constexpr std::size_t kFirstCapacity = 4;

  std::size_t slot(std::size_t i) const {
    return (head_ + i) & (capacity_ - 1);
  }

  void grow() {
    const std::size_t capacity =
        capacity_ == 0 ? kFirstCapacity : 2 * capacity_;
    T* data = std::allocator<T>{}.allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = data_ + slot(i);
      std::construct_at(data + i, std::move(*from));
      std::destroy_at(from);
    }
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, capacity_);
    data_ = data;
    capacity_ = capacity;
    head_ = 0;
  }

  T* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace spinn
