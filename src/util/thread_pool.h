// Small self-scheduling thread pool for fanning independent solves.
//
// Design constraints, in priority order:
//   1. Determinism — parallel_for(n, body) invokes body(i) exactly once per
//      index; callers write results[i], so output ordering never depends on
//      scheduling. The pool guarantees nothing about *execution* order.
//   2. Load balance — every participant claims the next unclaimed index
//      from one atomic cursor per job, so uneven work (e.g. thermal runaway
//      points whose Newton loops run long) holds up only the thread running
//      it while the others drain the rest.
//   3. Simplicity — one job in flight at a time, one cursor per job. The
//      tasks this pool exists for (steady-state solves, OFTEC runs) cost
//      milliseconds to seconds each, so an atomic increment per index is
//      noise.
//
// The calling thread participates as a worker, so ThreadPool(1) runs the
// loop inline, in index order, with zero synchronization; so does a call
// with count == 1. Nested parallel_for calls on the same pool degrade to
// inline execution instead of deadlocking.
//
// Thread count resolution: explicit argument, else the OFTEC_THREADS
// environment variable, else std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace oftec::util {

class ThreadPool {
 public:
  /// `threads` = total workers including the calling thread; 0 → resolve via
  /// default_thread_count(). A pool of 1 spawns no background threads.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size() + 1;
  }

  /// OFTEC_THREADS environment variable if set (clamped to ≥ 1), else
  /// hardware concurrency, else 1.
  [[nodiscard]] static std::size_t default_thread_count();

  /// Invoke body(i) once for each i in [0, count), distributed over all
  /// workers; blocks until every index has completed. The first exception
  /// thrown by any body is rethrown here (remaining indices are skipped on
  /// a best-effort basis). Reentrant calls from inside a body run inline.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  /// One parallel_for invocation.
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};  // next unclaimed index
    std::atomic<std::size_t> remaining{0};
    std::atomic<bool> cancelled{false};
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  void worker_loop();
  /// Claim and run indices until the cursor passes the end.
  static void participate(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;   // workers wait here for a new job
  std::condition_variable done_cv_;   // the submitter waits here
  std::shared_ptr<Job> job_;          // null when idle
  std::uint64_t job_seq_ = 0;
  bool stopping_ = false;
  std::mutex submit_mutex_;           // one parallel_for at a time
};

}  // namespace oftec::util
