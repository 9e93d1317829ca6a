// The parallel execution runtime: thread pool, the admission gate that
// bounds concurrent planning, ParallelFor partitioning, ParallelForStatus
// error propagation, and the determinism contract — with
// fixed seeds, results are identical for every thread count, because index
// assignment is static and per-task rngs derive only from task indices.
#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/balsa/simulation.h"
#include "src/util/admission_gate.h"
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

TEST(AdmissionGateTest, NeverAdmitsMoreThanItsSlots) {
  AdmissionGate gate(2);
  EXPECT_EQ(gate.slots(), 2);
  std::atomic<int> inside{0};
  std::atomic<int> high_water{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        AdmissionGate::Slot slot = gate.Acquire();
        const int now = inside.fetch_add(1) + 1;
        int seen = high_water.load();
        while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::yield();
        inside.fetch_sub(1);
        admitted.fetch_add(1);
      }  // the slot frees here
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(admitted.load(), 8 * 200);
  EXPECT_LE(high_water.load(), 2);
  EXPECT_GE(high_water.load(), 1);
  EXPECT_EQ(gate.waiters(), 0);
}

TEST(AdmissionGateTest, WaitersIsExactAtQuiescence) {
  AdmissionGate gate(2);
  // Hold both slots, so every later Acquire blocks.
  std::vector<AdmissionGate::Slot> held;
  held.push_back(gate.Acquire());
  held.push_back(gate.Acquire());
  EXPECT_EQ(gate.waiters(), 0);

  auto wait_for_waiters = [&](int64_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (gate.waiters() != want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return gate.waiters();
  };
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      AdmissionGate::Slot slot = gate.Acquire();
      admitted.fetch_add(1);
    });
  }
  EXPECT_EQ(wait_for_waiters(3), 3);
  EXPECT_EQ(admitted.load(), 0);

  // Freeing both slots lets all three through, one slot at a time.
  held.clear();
  EXPECT_EQ(wait_for_waiters(0), 0);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(admitted.load(), 3);
  EXPECT_EQ(gate.waiters(), 0);

  // A moved slot frees once; an empty slot frees nothing.
  AdmissionGate::Slot a = gate.Acquire();
  AdmissionGate::Slot b = std::move(a);
  AdmissionGate::Slot c = gate.Acquire();
  a = AdmissionGate::Slot();
  b = AdmissionGate::Slot();  // frees one slot
  AdmissionGate::Slot d = gate.Acquire();  // would block if b had not freed
  EXPECT_EQ(gate.waiters(), 0);
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
