// MpmcQueue: a bounded, blocking multi-producer/multi-consumer queue.
//
// The serving runtime's request path: submitters push (blocking when the
// queue is full, which is the runtime's backpressure mechanism) and the
// batcher pops with a deadline: `now` to take only what is already queued,
// or a max_delay cap to let a batch fill after a full one. close() wakes
// everyone: pending pushes fail, pops drain the remaining items and then
// return nullopt.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace pgmr::runtime {

template <typename T>
class MpmcQueue {
 public:
  /// A zero capacity would deadlock every push; clamp to one slot.
  explicit MpmcQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocks while full; returns false (dropping `item`) once closed.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed.
  bool try_push(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    return pop_locked();
  }

  /// Like pop(), but gives up at `deadline` (returns nullopt on timeout).
  template <typename Clock, typename Duration>
  std::optional<T> pop_until(
      const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock lock(mutex_);
    not_empty_.wait_until(lock, deadline,
                          [this] { return closed_ || !items_.empty(); });
    return pop_locked();
  }

  /// Rejects future pushes and wakes all waiters. Items already queued
  /// remain poppable (consumers drain, then see nullopt).
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  std::optional<T> pop_locked() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    not_full_.notify_one();
    return out;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace pgmr::runtime
