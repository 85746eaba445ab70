#include "util/thread_pool.h"

#include <chrono>
#include <cstdlib>
#include <system_error>

#include "util/fault.h"
#include "util/log.h"
#include "util/obs.h"

namespace oftec::util {

namespace {

/// True while the current thread is inside a parallel_for body of some pool;
/// nested calls then run inline instead of deadlocking on the job slot.
thread_local bool t_inside_pool_body = false;

const obs::Counter g_obs_jobs = obs::counter("thread_pool.jobs");
const obs::Counter g_obs_tasks = obs::counter("thread_pool.tasks");
const obs::Counter g_obs_inline_tasks = obs::counter("thread_pool.inline_tasks");
const obs::Gauge g_obs_queue_depth = obs::gauge("thread_pool.queue_depth");
const obs::Histogram g_obs_task_ms =
    obs::histogram("thread_pool.task_ms", obs::exponential_bounds(0.01, 4.0, 10));

}  // namespace

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("OFTEC_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t threads) {
  static const fault::Site spawn_fail = fault::site("thread_pool.spawn_fail");
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads - 1);
  for (std::size_t id = 1; id < threads; ++id) {
    // A worker that fails to start (injected, or a real resource-exhaustion
    // std::system_error) leaves a smaller pool; parallel_for stays correct at
    // any worker count, including zero, so degrade rather than abort.
    if (spawn_fail.should_fail()) {
      log::warn("thread_pool: worker ", id, " failed to start (injected); ",
                "continuing with a smaller pool");
      continue;
    }
    try {
      workers_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error& e) {
      log::warn("thread_pool: worker ", id, " failed to start (", e.what(),
                "); continuing with ", workers_.size(), " workers");
      break;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::participate(Job& job) {
  while (true) {
    const std::size_t index = job.next.fetch_add(1);
    if (index >= job.count) return;
    if (!job.cancelled.load(std::memory_order_relaxed)) {
      const bool timed = obs::enabled();
      const auto start = timed ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
      t_inside_pool_body = true;
      try {
        (*job.body)(index);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(job.error_mutex);
          if (!job.error) job.error = std::current_exception();
        }
        job.cancelled.store(true, std::memory_order_relaxed);
      }
      t_inside_pool_body = false;
      if (timed) {
        g_obs_tasks.add();
        g_obs_task_ms.observe(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
      }
    }
    job.remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock,
                    [&] { return stopping_ || (job_ && job_seq_ != seen); });
      if (stopping_) return;
      job = job_;
      seen = job_seq_;
    }
    participate(*job);
    if (job->remaining.load(std::memory_order_acquire) == 0) {
      // Bridge through the mutex so a submitter that read a stale count
      // under the lock is guaranteed to be blocked before this notify.
      { const std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Inline paths: single-threaded pool, tiny batch, or a nested call from
  // inside another parallel_for body (worker threads are all busy then).
  if (workers_.empty() || count == 1 || t_inside_pool_body) {
    g_obs_inline_tasks.add(count);
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  const std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  g_obs_jobs.add();
  g_obs_queue_depth.set(static_cast<double>(count));

  auto job = std::make_shared<Job>();
  job->body = &body;
  job->count = count;
  job->remaining.store(count, std::memory_order_relaxed);

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++job_seq_;
  }
  wake_cv_.notify_all();

  participate(*job);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job->remaining.load(std::memory_order_acquire) == 0;
    });
    job_.reset();
  }

  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace oftec::util
