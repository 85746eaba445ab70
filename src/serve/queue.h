// Bounded MPMC queue — the admission-control point of the serving pipeline.
//
// Readers admit requests with try_push(): a full queue fails *immediately*
// so the connection thread can send a structured shed response instead of
// blocking (clients see deterministic backpressure, never head-of-line
// hangs). close() flips the queue into drain mode: pushes fail from that
// point on, but pop() keeps returning the items already admitted until the
// queue is empty — exactly the semantics a graceful server shutdown needs
// (admitted work completes, new work is refused).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace oftec::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admit one item; false when full or closed (never blocks).
  bool try_push(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking push; false only when the queue is (or becomes) closed.
  bool push(T item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Block for the next item. nullopt once closed *and* drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return take(lock);
  }

  /// Pop the front item only if `pred(front)` holds; never blocks. nullopt
  /// when the queue is empty or the front item fails the predicate (it then
  /// stays first in line).
  template <typename Pred>
  std::optional<T> try_pop_if(Pred pred) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty() || !pred(items_.front())) return std::nullopt;
    return take(lock);
  }

  /// Refuse new items; items already admitted remain poppable.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::optional<T> take(std::unique_lock<std::mutex>& lock) {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace oftec::serve
