// ParallelFor: statically partitioned index-space parallelism on a
// ThreadPool. The contiguous shard assignment is a pure function of
// (n, num_shards), so which worker runs which index never depends on thread
// scheduling — callers that write result slot i from iteration i get
// deterministic output for any pool size, including none.
// ParallelForStatus is the Status-returning fan-out the agent, simulation
// collection and multi-seed runs use: the error it reports is likewise a
// pure function of the tasks, never of which thread failed first.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <future>
#include <vector>

#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace balsa {

/// Runs fn(i) for every i in [0, n), blocking until all complete. Work is
/// split into at most pool->num_threads() contiguous shards; with a null
/// pool (or a single shard) it runs inline on the calling thread.
inline void ParallelFor(ThreadPool* pool, size_t n,
                        const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  size_t shards =
      pool ? std::min<size_t>(static_cast<size_t>(pool->num_threads()), n)
           : 1;
  if (shards <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> done;
  done.reserve(shards);
  // Shard s covers [s*base + min(s, extra), ...) — contiguous, balanced.
  size_t base = n / shards, extra = n % shards;
  size_t lo = 0;
  for (size_t s = 0; s < shards; ++s) {
    size_t hi = lo + base + (s < extra ? 1 : 0);
    done.push_back(pool->Submit([&fn, lo, hi] {
      for (size_t i = lo; i < hi; ++i) fn(i);
    }));
    lo = hi;
  }
  for (std::future<void>& f : done) f.get();
}

/// Runs fn(i) for every i in [0, n) like ParallelFor — every task runs, even
/// after another has failed — and returns the lowest-index non-OK status.
inline Status ParallelForStatus(ThreadPool* pool, size_t n,
                                const std::function<Status(size_t)>& fn) {
  std::vector<Status> statuses(n);
  ParallelFor(pool, n, [&](size_t i) { statuses[i] = fn(i); });
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace balsa
