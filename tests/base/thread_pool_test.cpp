// The socket server's worker pool: one FIFO queue feeding N workers.
#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

namespace mintc::base {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.executed_count(), 1000);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    EXPECT_EQ(count.load(), (batch + 1) * 50);
  }
}

TEST(ThreadPool, RunsABacklogInSubmissionOrder) {
  // Park the only worker, queue tasks 0..7 behind it, then release it: the
  // backlog must start oldest first.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  pool.submit([&] {
    std::unique_lock<std::mutex> lk(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return parked; });
  }
  std::vector<int> order;  // written by the one worker, read after wait()
  for (int i = 0; i < 8; ++i) pool.submit([&order, i] { order.push_back(i); });
  EXPECT_EQ(pool.pending(), 9);
  {
    const std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  pool.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(pool.pending(), 0);
  EXPECT_EQ(pool.executed_count(), 9);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait(): ~ThreadPool must finish the backlog before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace mintc::base
