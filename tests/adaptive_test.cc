// The adaptive statistics subsystem end to end: drift scoring, the
// detect → re-ANALYZE → swap → bump → re-warm pass, incremental-vs-full
// fallback, oracle memo invalidation, background scheduling, and
// writer-count invariance of the whole loop.
#include "src/adaptive/reanalyze_scheduler.h"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/adaptive/drift_detector.h"
#include "src/model/value_network.h"
#include "src/stats/incremental_analyze.h"
#include "src/workloads/drift_scenario.h"
#include "test_util.h"

namespace balsa {
namespace {

class AdaptiveTest : public ::testing::Test {
 protected:
  AdaptiveTest()
      : fixture_(testing::MakeStarFixture()),
        swappable_(fixture_.estimator),
        log_(fixture_.db.get()),
        featurizer_(&fixture_.schema(), &swappable_) {
    // Anchor the change log on the fixture's ANALYZE output, as MakeEnv
    // does for the real workloads.
    const std::vector<TableStats>& stats = fixture_.estimator->stats();
    for (int t = 0; t < fixture_.schema().num_tables(); ++t) {
      log_.SetAnchor(t, MakeTableAnchor(stats[static_cast<size_t>(t)]));
    }
    ValueNetConfig config;
    config.query_dim = featurizer_.query_dim();
    config.node_dim = featurizer_.node_dim();
    config.tree_hidden1 = 16;
    config.tree_hidden2 = 8;
    config.mlp_hidden = 8;
    config.init_seed = 11;
    network_ = std::make_unique<ValueNetwork>(config);
  }

  std::unique_ptr<OptimizerServer> MakeServer() {
    OptimizerServerOptions options;
    options.planner.beam_size = 5;
    options.planner.top_k = 2;
    return std::make_unique<OptimizerServer>(&fixture_.schema(), &featurizer_,
                                             network_.get(),
                                             fixture_.oracle.get(), options);
  }

  DriftScenarioOptions SalesDrift() {
    DriftScenarioOptions options;
    options.tables = {fixture_.schema().TableIndex("sales")};
    options.growth = 0.5;
    options.delete_fraction = 0.05;
    options.update_fraction = 0.05;
    options.batches_per_table = 4;
    return options;
  }

  void Drift(const DriftScenarioOptions& options, int writers = 1) {
    auto scenario = GenerateDriftScenario(*fixture_.db, options);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    ASSERT_TRUE(ApplyDriftScenario(*scenario, &log_, writers).ok());
  }

  testing::StarFixture fixture_;
  SwappableEstimator swappable_;
  ChangeLog log_;
  Featurizer featurizer_;
  std::unique_ptr<ValueNetwork> network_;
};

TEST_F(AdaptiveTest, DetectorScoresDriftAxesIndependently) {
  DriftDetector detector;
  int sales = fixture_.schema().TableIndex("sales");
  const TableStats& snapshot =
      fixture_.estimator->stats()[static_cast<size_t>(sales)];

  // Untouched table: zero score.
  DriftScore quiet =
      detector.Score(snapshot, log_.anchor(sales), log_.Snapshot(sales));
  EXPECT_EQ(quiet.score, 0);
  EXPECT_FALSE(quiet.drifted);

  // 50% growth with a shifted domain: both the row axis and the histogram
  // axis fire on their own.
  Drift(SalesDrift());
  DriftScore loud =
      detector.Score(snapshot, log_.anchor(sales), log_.Snapshot(sales));
  EXPECT_TRUE(loud.drifted);
  EXPECT_GT(loud.row_component, detector.thresholds().row_ratio);
  EXPECT_GT(loud.histogram_component,
            detector.thresholds().histogram_distance);
  EXPECT_GE(loud.score, 1.0);
}

TEST_F(AdaptiveTest, PassClosesTheLoopIntoServing) {
  auto server = MakeServer();
  ReanalyzeSchedulerOptions options;
  options.rewarm_top_k = 2;
  ReanalyzeScheduler scheduler(fixture_.db.get(), &log_, fixture_.oracle.get(),
                               &swappable_, server.get(), options);

  // Warm the cache: two queries, one clearly hotter.
  Query star = testing::MakeStarQuery(fixture_.schema(), 0);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(server->Optimize(star).ok());
  EXPECT_EQ(server->stats_version(), 0);

  // Quiet pass: nothing to do.
  ReanalyzeScheduler::PassReport idle = scheduler.RunOnce();
  EXPECT_FALSE(idle.bumped);
  EXPECT_EQ(idle.tables_drifted, 0);

  // Drift, then one pass: merged stats installed, generation bumped, hot
  // fingerprints re-warmed.
  Drift(SalesDrift());
  int sales = fixture_.schema().TableIndex("sales");
  int64_t stale_rows =
      swappable_.current()->stats()[static_cast<size_t>(sales)].row_count;
  ReanalyzeScheduler::PassReport pass = scheduler.RunOnce();
  EXPECT_EQ(pass.tables_drifted, 1);
  EXPECT_EQ(pass.incremental_merges, 1);
  EXPECT_TRUE(pass.bumped);
  EXPECT_EQ(pass.new_version, 1);
  EXPECT_EQ(pass.rewarm.replanned, 1);  // one cached fingerprint

  // The estimator now carries the merged row count (exact under inserts).
  EXPECT_EQ(
      swappable_.current()->stats()[static_cast<size_t>(sales)].row_count,
      fixture_.db->row_count(sales));
  EXPECT_GT(
      swappable_.current()->stats()[static_cast<size_t>(sales)].row_count,
      stale_rows);

  // Serving: the re-warmed plan hits at the new version instantly.
  auto served = server->Optimize(star);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->cache_hit);
  EXPECT_EQ(served->stats_version, 1);

  // The change log was rebased: a second pass is quiet again.
  ReanalyzeScheduler::PassReport after = scheduler.RunOnce();
  EXPECT_FALSE(after.bumped);
  EXPECT_EQ(scheduler.counters().bumps, 1);
}

TEST_F(AdaptiveTest, StalenessBoundForcesFullReanalyze) {
  // Four consecutive incremental merges of one table; the fifth
  // re-ANALYZE is a full rescan although its change fraction is the same.
  ReanalyzeSchedulerOptions options;
  options.rewarm_top_k = 0;
  ReanalyzeScheduler scheduler(fixture_.db.get(), &log_, fixture_.oracle.get(),
                               &swappable_, nullptr, options);
  for (int round = 0; round < 4; ++round) {
    Drift(SalesDrift());
    ReanalyzeScheduler::PassReport pass = scheduler.RunOnce();
    EXPECT_EQ(pass.incremental_merges, 1) << "pass " << round;
    EXPECT_EQ(pass.full_reanalyzes, 0) << "pass " << round;
  }
  Drift(SalesDrift());
  ReanalyzeScheduler::PassReport pass = scheduler.RunOnce();
  EXPECT_EQ(pass.full_reanalyzes, 1);
  EXPECT_EQ(pass.incremental_merges, 0);
  // A full rescan is exact: every column's NDV matches a fresh
  // AnalyzeTable bit-for-bit.
  int sales = fixture_.schema().TableIndex("sales");
  auto fresh = AnalyzeTable(*fixture_.db, sales);
  ASSERT_TRUE(fresh.ok());
  const TableStats& installed =
      swappable_.current()->stats()[static_cast<size_t>(sales)];
  ASSERT_EQ(installed.columns.size(), fresh->columns.size());
  for (size_t c = 0; c < fresh->columns.size(); ++c) {
    EXPECT_EQ(installed.columns[c].num_distinct,
              fresh->columns[c].num_distinct);
  }
}

TEST_F(AdaptiveTest, ChangeFractionForcesFullReanalyze) {
  // 110% growth plus 5% deletes and 5% updates: more changed rows than the
  // anchor's base, so the first re-ANALYZE is already a full rescan.
  ReanalyzeSchedulerOptions options;
  options.rewarm_top_k = 0;
  ReanalyzeScheduler scheduler(fixture_.db.get(), &log_, fixture_.oracle.get(),
                               &swappable_, nullptr, options);
  DriftScenarioOptions drift = SalesDrift();
  drift.growth = 1.1;
  Drift(drift);
  ReanalyzeScheduler::PassReport pass = scheduler.RunOnce();
  EXPECT_EQ(pass.full_reanalyzes, 1);
  EXPECT_EQ(pass.incremental_merges, 0);
}

TEST_F(AdaptiveTest, IngestInvalidatesOracleMemo) {
  Query star = testing::MakeStarQuery(fixture_.schema(), 0);
  ASSERT_TRUE(fixture_.oracle->Cardinality(star, star.AllTables()).ok());
  EXPECT_GT(fixture_.oracle->CacheSize(), 0u);
  Drift(SalesDrift());
  // Memo entries are tagged with storage publication epochs, so ingest
  // expires them on its own — no scheduler or listener involved.
  EXPECT_EQ(fixture_.oracle->CacheSize(), 0u);
}

TEST_F(AdaptiveTest, BackgroundLoopDetectsDriftByItself) {
  ReanalyzeSchedulerOptions options;
  options.check_interval_ms = 5;
  options.rewarm_top_k = 0;
  ReanalyzeScheduler scheduler(fixture_.db.get(), &log_, fixture_.oracle.get(),
                               &swappable_, nullptr, options);
  scheduler.Start();
  scheduler.Start();  // idempotent
  Drift(SalesDrift());
  // Wait (bounded) for the background pass to pick the drift up.
  for (int i = 0; i < 400 && scheduler.counters().bumps == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  scheduler.Stop();
  scheduler.Stop();  // idempotent
  // A pass can fire mid-drift and bump on the partial delta, then again
  // once the rest lands — so "at least one", not "exactly one".
  EXPECT_GE(scheduler.counters().bumps, 1);
  EXPECT_GE(fixture_.oracle->generation(), 1);
  EXPECT_GE(scheduler.counters().passes, 1);
}

TEST_F(AdaptiveTest, LoopIsWriterCountInvariant) {
  // The same drift stream applied with 1 writer here and 3 writers in a
  // twin fixture must produce identical data, sketches, and merged stats.
  auto twin = testing::MakeStarFixture();
  SwappableEstimator twin_swappable(twin.estimator);
  ChangeLog twin_log(twin.db.get());
  const std::vector<TableStats>& stats = twin.estimator->stats();
  for (int t = 0; t < twin.schema().num_tables(); ++t) {
    twin_log.SetAnchor(t, MakeTableAnchor(stats[static_cast<size_t>(t)]));
  }

  DriftScenarioOptions drift;  // all large-enough tables (sales + customer)
  drift.min_rows_to_drift = 300;
  Drift(drift, /*writers=*/1);
  auto scenario = GenerateDriftScenario(*twin.db, drift);
  ASSERT_TRUE(scenario.ok());
  ASSERT_TRUE(ApplyDriftScenario(*scenario, &twin_log, /*writers=*/3).ok());

  ReanalyzeSchedulerOptions options;
  options.rewarm_top_k = 0;
  ReanalyzeScheduler ours(fixture_.db.get(), &log_, fixture_.oracle.get(),
                          &swappable_, nullptr, options);
  ReanalyzeScheduler theirs(twin.db.get(), &twin_log, twin.oracle.get(),
                            &twin_swappable, nullptr, options);
  ReanalyzeScheduler::PassReport a = ours.RunOnce();
  ReanalyzeScheduler::PassReport b = theirs.RunOnce();
  EXPECT_EQ(a.tables_drifted, b.tables_drifted);
  EXPECT_EQ(a.max_score, b.max_score);  // bitwise: same sketches
  for (int t = 0; t < fixture_.schema().num_tables(); ++t) {
    const TableStats& ta =
        swappable_.current()->stats()[static_cast<size_t>(t)];
    const TableStats& tb =
        twin_swappable.current()->stats()[static_cast<size_t>(t)];
    EXPECT_EQ(ta.row_count, tb.row_count) << "table " << t;
    for (size_t c = 0; c < ta.columns.size(); ++c) {
      EXPECT_EQ(ta.columns[c].num_distinct, tb.columns[c].num_distinct)
          << "table " << t << " column " << c;
      EXPECT_EQ(ta.columns[c].histogram_bounds,
                tb.columns[c].histogram_bounds)
          << "table " << t << " column " << c;
    }
    EXPECT_EQ(fixture_.db->CopyTableData(t).columns,
              twin.db->CopyTableData(t).columns)
        << "table " << t;
  }
}

}  // namespace
}  // namespace balsa
