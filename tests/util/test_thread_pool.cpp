#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace oftec::util {
namespace {

TEST(ThreadPool, EachIndexInvokedExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPool, ResultsOrderedByIndexNotBySchedule) {
  ThreadPool pool(4);
  std::vector<std::size_t> out(257);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ZeroAndSmallCounts) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
  // Fewer indices than workers: nothing hangs, every index still runs.
  pool.parallel_for(2, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, OneThreadAndOneIndexRunInlineInIndexOrder) {
  // LutController::build and sweep_pareto_front rely on this: their serial
  // mode is a one-thread pool.
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool one(1);
  std::vector<std::size_t> order;
  std::vector<std::thread::id> ran_on;
  one.parallel_for(64, [&](std::size_t i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(ran_on[i], caller) << "i=" << i;
  }

  ThreadPool four(4);
  std::vector<std::size_t> single;
  std::thread::id single_on;
  four.parallel_for(1, [&](std::size_t i) {
    single.push_back(i);
    single_on = std::this_thread::get_id();
  });
  EXPECT_EQ(single, std::vector<std::size_t>{0});
  EXPECT_EQ(single_on, caller);
}

TEST(ThreadPool, SlowIndexDoesNotHoldUpTheOthers) {
  // Whichever thread claims index 0 waits there until every other index has
  // run, so the rest must be drained by the other participants. Every index
  // still runs exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 200;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<std::size_t> others_done{0};
  bool waited_out = false;
  pool.parallel_for(kCount, [&](std::size_t i) {
    if (i == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (others_done.load() < kCount - 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      waited_out = others_done.load() == kCount - 1;
    } else {
      others_done.fetch_add(1);
    }
    hits[i].fetch_add(1);
  });
  EXPECT_TRUE(waited_out);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPool, FirstExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) {
                            throw std::runtime_error("boom at 37");
                          }
                        }),
      std::runtime_error);
  // The pool must survive a throwing job and accept the next one.
  std::atomic<int> calls{0};
  pool.parallel_for(10, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, ReentrantParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](std::size_t outer) {
    pool.parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPool, SequentialJobsReuseWorkers) {
  ThreadPool pool(4);
  long total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 50L * (99L * 100L / 2L));
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvironment) {
  // OFTEC_THREADS overrides hardware concurrency; invalid/zero values clamp
  // to at least one worker.
  const char* saved = std::getenv("OFTEC_THREADS");
  const std::string restore = saved ? saved : "";

  ::setenv("OFTEC_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  EXPECT_EQ(ThreadPool(0).thread_count(), 3u);

  ::setenv("OFTEC_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);

  if (saved) {
    ::setenv("OFTEC_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("OFTEC_THREADS");
  }
}

}  // namespace
}  // namespace oftec::util
