#include "base/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mintc::base {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();  // each worker leaves once the queue is empty
}

void ThreadPool::submit(std::function<void()> task) {
  assert(task && "null task submitted");
  {
    const std::lock_guard<std::mutex> lk(mu_);
    ++pending_;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  assert(std::none_of(workers_.begin(), workers_.end(),
                      [](const std::thread& w) {
                        return w.get_id() == std::this_thread::get_id();
                      }) &&
         "wait() from a worker would deadlock");
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
}

std::int64_t ThreadPool::pending() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return pending_;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and the backlog is drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lk.unlock();
    busy_.fetch_add(1, std::memory_order_relaxed);
    task();
    task = nullptr;  // captures die before wait() can return
    busy_.fetch_sub(1, std::memory_order_relaxed);
    executed_.fetch_add(1, std::memory_order_relaxed);
    lk.lock();
    // Notify under the lock: once pending_ reads 0 and the lock is released,
    // wait() may return and its caller destroy the pool.
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

}  // namespace mintc::base
