// The parallel execution runtime: thread pool, ParallelFor partitioning,
// ParallelForStatus error propagation, and the determinism contract — with
// fixed seeds, results are identical for every thread count, because index
// assignment is static and per-task rngs derive only from task indices.
#include "src/util/thread_pool.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "src/balsa/simulation.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"
#include "test_util.h"

namespace balsa {
namespace {

TEST(ThreadPoolTest, SubmitReturnsFutureResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, DestructorDrainsScheduledWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Schedule([&ran] { ran++; });
    }
  }  // ~ThreadPool must run every queued task before joining.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultNumThreads());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<int> hits(1000, 0);
    ParallelFor(&pool, hits.size(),
                [&](size_t i) { hits[i]++; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> hits(10, 0);
  ParallelFor(nullptr, hits.size(), [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, SeededTasksAreThreadCountInvariant) {
  // Per-index rngs seeded from the index alone: the output vector must be
  // identical no matter how many threads execute it.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<uint64_t> out(512);
    ParallelFor(&pool, out.size(), [&](size_t i) {
      Rng rng(1234 + i);
      out[i] = rng.Next() ^ rng.Next();
    });
    return out;
  };
  std::vector<uint64_t> baseline = run(1);
  EXPECT_EQ(run(2), baseline);
  EXPECT_EQ(run(5), baseline);
}

TEST(ParallelForStatusTest, RunsAllTasksOnSuccess) {
  ThreadPool pool(4);
  std::vector<int> done(100, 0);
  Status st = ParallelForStatus(&pool, done.size(), [&](size_t i) {
    done[i] = static_cast<int>(i) + 1;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i], static_cast<int>(i) + 1);
  }
}

TEST(ParallelForStatusTest, ReturnsLowestIndexErrorForEveryThreadCount) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<int> ran(32, 0);
    Status st = ParallelForStatus(&pool, ran.size(), [&](size_t i) -> Status {
      ran[i]++;
      if (i == 7 || i == 21) {
        return Status::Internal("task " + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    // Deterministic winner: the lowest failing index, not whichever thread
    // finished first — and a failure cancels no other task.
    EXPECT_EQ(st.message(), "task 7") << threads << " threads";
    for (int r : ran) EXPECT_EQ(r, 1) << threads << " threads";
  }
}

TEST(SimulationCollectionTest, DatasetIsThreadCountInvariant) {
  testing::StarFixture fixture = testing::MakeStarFixture();
  Query query = testing::MakeStarQuery(fixture.schema());
  Featurizer featurizer(&fixture.schema(), fixture.estimator.get());
  CoutCostModel cout(fixture.estimator, &fixture.schema());

  auto collect = [&](int threads) {
    SimulationOptions options;
    options.max_points_per_query = 60;  // force reservoir sampling
    options.num_threads = threads;
    auto data = CollectSimulationData({&query, &query, &query},
                                      fixture.schema(), cout, featurizer,
                                      options);
    BALSA_CHECK(data.ok(), data.status().ToString());
    return std::move(data).value();
  };

  std::vector<TrainingPoint> baseline = collect(1);
  ASSERT_EQ(baseline.size(), 180u);
  for (int threads : {2, 4}) {
    std::vector<TrainingPoint> run = collect(threads);
    ASSERT_EQ(run.size(), baseline.size());
    for (size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(run[i].label, baseline[i].label);
      EXPECT_EQ(run[i].query, baseline[i].query);
      EXPECT_EQ(run[i].plan.features, baseline[i].plan.features);
      EXPECT_EQ(run[i].plan.left, baseline[i].plan.left);
      EXPECT_EQ(run[i].plan.right, baseline[i].plan.right);
    }
  }
}

}  // namespace
}  // namespace balsa
