// A fixed-size thread pool with a single shared FIFO queue — deliberately
// work-stealing-free: our tasks are coarse (plan one query, collect one
// query's simulation data, run one seed), so a simple queue is predictable
// and contention-free enough. Futures come from Submit(); fire-and-forget
// callables go through Schedule().
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/thread_annotations.h"

namespace balsa {

class ThreadPool {
 public:
  /// num_threads <= 0 uses std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(int num_threads = 0);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a fire-and-forget task. Thread-safe.
  void Schedule(std::function<void()> fn) EXCLUDES(mu_);

  /// Enqueues a callable and returns a future for its result. Thread-safe.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    Schedule([task] { (*task)(); });
    return future;
  }

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// The pool size used when num_threads <= 0.
  static int DefaultNumThreads();

 private:
  void RunTasks() EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace balsa
