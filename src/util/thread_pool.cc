#include "src/util/thread_pool.h"

#include <algorithm>

namespace balsa {

int ThreadPool::DefaultNumThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultNumThreads();
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { RunTasks(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Schedule(std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    queue_.push(std::move(fn));
  }
  cv_.NotifyOne();
}

void ThreadPool::RunTasks() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      // Drain the queue even when stopping: destruction must not drop
      // submitted tasks (their futures would never become ready).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace balsa
