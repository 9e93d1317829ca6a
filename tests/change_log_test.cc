// The change stream: database mutation semantics, streaming sketch
// accounting (counts, min/max, HLL distinct, anchored bucket/MCV deltas),
// anchor rebasing, and order-independence of sketch state.
#include "src/storage/change_log.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/hll.h"
#include "src/util/logging.h"

namespace balsa {
namespace {

Schema TwoColumnSchema(int64_t rows = 6) {
  Schema schema;
  ColumnDef id;
  id.name = "id";
  id.kind = ColumnKind::kPrimaryKey;
  ColumnDef v;
  v.name = "v";
  v.kind = ColumnKind::kAttribute;
  EXPECT_TRUE(schema.AddTable({"t", rows, {id, v}}).ok());
  return schema;
}

std::unique_ptr<Database> SmallDb() {
  auto db = std::make_unique<Database>(TwoColumnSchema());
  TableData data;
  data.row_count = 6;
  data.columns = {{0, 1, 2, 3, 4, 5}, {10, 20, 30, 40, 50, 60}};
  EXPECT_TRUE(db->SetTableData(0, std::move(data)).ok());
  return db;
}

TEST(DatabaseMutationTest, AppendRemoveAndSetValue) {
  auto db = SmallDb();
  ASSERT_TRUE(db->AppendRows(0, {{6, 70}, {7, 80}}).ok());
  EXPECT_EQ(db->row_count(0), 8);
  EXPECT_EQ(db->GetTableVersion(0)->column(1)[7], 80);

  // Swap-remove: deleting rows 0 and 2 pulls tail rows into the holes.
  ASSERT_TRUE(db->RemoveRows(0, {0, 2}).ok());
  EXPECT_EQ(db->row_count(0), 6);
  // Every surviving value is still present exactly once.
  std::vector<int64_t> ids = db->CopyTableData(0).columns[0];
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 3, 4, 5, 6, 7}));

  ASSERT_TRUE(db->SetValues(0, 1, {{0, 99}}).ok());
  EXPECT_EQ(db->GetTableVersion(0)->column(1)[0], 99);

  EXPECT_FALSE(db->RemoveRows(0, {100}).ok());
  EXPECT_FALSE(db->RemoveRows(0, {1, 1}).ok());
  EXPECT_FALSE(db->AppendRows(0, {{1}}).ok());  // wrong arity
}

TEST(DatabaseMutationTest, RemoveLastRowAndAllRows) {
  auto db = SmallDb();
  // Deleting the last row is the degenerate swap-remove (row swaps with
  // itself).
  ASSERT_TRUE(db->RemoveRows(0, {5}).ok());
  EXPECT_EQ(db->row_count(0), 5);
  std::vector<int64_t> ids = db->CopyTableData(0).columns[0];
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 2, 3, 4}));

  // Deleting every remaining row empties the table but keeps its width.
  ASSERT_TRUE(db->RemoveRows(0, {0, 1, 2, 3, 4}).ok());
  EXPECT_EQ(db->row_count(0), 0);
  EXPECT_FALSE(db->HasData(0));
  EXPECT_EQ(db->GetTableVersion(0)->num_columns(), 2);
  EXPECT_FALSE(db->RemoveRows(0, {0}).ok());  // nothing left to delete

  // The emptied table accepts appends again.
  ASSERT_TRUE(db->AppendRows(0, {{42, 43}}).ok());
  EXPECT_EQ(db->row_count(0), 1);
  EXPECT_EQ(db->GetTableVersion(0)->column(1)[0], 43);
}

TEST(DatabaseMutationTest, AppendToNeverInstalledTableMaterializesColumns) {
  // Regression: with no SetTableData, the table used to have zero
  // materialized columns, so zero-width rows were accepted and row_count
  // grew with no backing data. Appends must validate against the schema's
  // width and materialize real columns.
  Database db(TwoColumnSchema());
  EXPECT_FALSE(db.AppendRows(0, {{}}).ok());       // zero-width row
  EXPECT_FALSE(db.AppendRows(0, {{1}}).ok());      // wrong arity
  EXPECT_EQ(db.row_count(0), 0);
  ASSERT_TRUE(db.AppendRows(0, {{0, 10}, {1, 20}}).ok());
  EXPECT_EQ(db.row_count(0), 2);
  ASSERT_EQ(db.GetTableVersion(0)->num_columns(), 2);
  EXPECT_EQ(db.GetTableVersion(0)->column(1)[1], 20);
}

TEST(DatabaseMutationTest, RejectedRemoveLeavesTableUntouched) {
  auto db = SmallDb();
  std::vector<int64_t> before = db->CopyTableData(0).columns[0];
  // Mix of one valid and one invalid id: nothing may be removed.
  EXPECT_FALSE(db->RemoveRows(0, {0, -1}).ok());
  EXPECT_FALSE(db->RemoveRows(0, {0, 100}).ok());
  EXPECT_FALSE(db->RemoveRows(0, {0, 0}).ok());
  EXPECT_EQ(db->row_count(0), 6);
  EXPECT_EQ(db->CopyTableData(0).columns[0], before);
}

TEST(DatabaseMutationTest, PinnedSnapshotSurvivesMutations) {
  auto db = SmallDb();
  Snapshot before = db->GetSnapshot();
  const HashIndex& index_before = before.index(0, 1);
  EXPECT_EQ(index_before.Lookup(70).size(), 0u);

  ASSERT_TRUE(db->AppendRows(0, {{6, 70}}).ok());
  ASSERT_TRUE(db->SetValues(0, 1, {{0, 99}}).ok());

  // The pinned snapshot still reads (and indexes) the pre-mutation data.
  EXPECT_EQ(before.row_count(0), 6);
  EXPECT_EQ(before.column(0, 1)[0], 10);
  EXPECT_EQ(before.index(0, 1).Lookup(70).size(), 0u);
  // A fresh snapshot sees the new version, with a fresh lazy index.
  Snapshot after = db->GetSnapshot();
  EXPECT_GT(after.epoch(), before.epoch());
  EXPECT_EQ(after.row_count(0), 7);
  EXPECT_EQ(after.column(0, 1)[0], 99);
  EXPECT_EQ(after.index(0, 1).Lookup(70).size(), 1u);
}

TEST(DatabaseMutationTest, SingleColumnUpdateSharesUnchangedColumns) {
  auto db = SmallDb();
  Snapshot before = db->GetSnapshot();
  ASSERT_TRUE(db->SetValues(0, 1, {{0, 99}, {1, 98}}).ok());
  Snapshot after = db->GetSnapshot();
  // Copy-on-write at column granularity: column 0 is the same allocation.
  EXPECT_EQ(&before.column(0, 0), &after.column(0, 0));
  EXPECT_NE(&before.column(0, 1), &after.column(0, 1));
}

TEST(HashIndexTest, NegativeValuesAreIndexed) {
  // Regression: the index used to skip every value < 0 as "NULL", but only
  // -1 is NULL — SetValues may write arbitrary negatives, and they must be
  // findable or index-assisted reads drop matching rows.
  auto db = SmallDb();
  ASSERT_TRUE(db->SetValues(0, 1, {{2, -5}, {4, -5}, {5, -1}}).ok());
  Snapshot snap = db->GetSnapshot();
  const HashIndex& index = snap.index(0, 1);
  ASSERT_EQ(index.Lookup(-5).size(), 2u);
  EXPECT_EQ(index.Lookup(-5)[0], 2u);
  EXPECT_EQ(index.Lookup(-5)[1], 4u);
  EXPECT_TRUE(index.Lookup(-1).empty());  // NULL stays unindexed
}

TEST(ChangeLogTest, InsertSketchTracksCountsMinMaxAndDistinct) {
  auto db = SmallDb();
  ChangeLog log(db.get());
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back({6 + i, 100 + (i % 50)});
  rows.push_back({900, -1});  // NULL attribute
  ASSERT_TRUE(log.InsertRows(0, rows).ok());

  TableDelta delta = log.Snapshot(0);
  EXPECT_EQ(delta.rows_inserted, 201);
  EXPECT_EQ(delta.epoch, 1);
  const ColumnDeltaSketch& v = delta.columns[1];
  EXPECT_EQ(v.inserted, 200);
  EXPECT_EQ(v.inserted_nulls, 1);
  EXPECT_EQ(v.min_inserted, 100);
  EXPECT_EQ(v.max_inserted, 149);
  // 50 distinct values; the 256-register HLL is well within 20% here.
  EXPECT_NEAR(v.distinct_inserted.Estimate(), 50.0, 10.0);
}

TEST(ChangeLogTest, AnchoredBucketAndMcvAttribution) {
  auto db = SmallDb();
  ChangeLog log(db.get());
  TableAnchor anchor;
  anchor.base_row_count = 6;
  anchor.columns.resize(2);
  anchor.columns[1].histogram_bounds = {10, 20, 30};  // 2 buckets
  anchor.columns[1].mcv_values = {25};
  log.SetAnchor(0, anchor);

  ASSERT_TRUE(log.InsertRows(0, {{6, 5},     // below bounds
                                 {7, 15},    // bucket [10,20]
                                 {8, 25},    // MCV, not a bucket
                                 {9, 27},    // bucket [20,30]
                                 {10, 99}})  // above bounds
                  .ok());
  TableDelta delta = log.Snapshot(0);
  const ColumnDeltaSketch& v = delta.columns[1];
  ASSERT_EQ(v.bucket_inserts.size(), 4u);  // below, 2 buckets, above
  EXPECT_EQ(v.bucket_inserts[0], 1);
  EXPECT_EQ(v.bucket_inserts[1], 1);
  EXPECT_EQ(v.bucket_inserts[2], 1);
  EXPECT_EQ(v.bucket_inserts[3], 1);
  ASSERT_EQ(v.mcv_inserts.size(), 1u);
  EXPECT_EQ(v.mcv_inserts[0], 1);

  // Delete the row holding value 15: its mass leaves bucket 1.
  ASSERT_TRUE(log.DeleteRows(0, {7}).ok());
  delta = log.Snapshot(0);
  EXPECT_EQ(delta.rows_deleted, 1);
  EXPECT_EQ(delta.columns[1].bucket_deletes[1], 1);
}

TEST(ChangeLogTest, RejectedDeleteLeavesSketchesClean) {
  auto db = SmallDb();
  ChangeLog log(db.get());
  EXPECT_FALSE(log.DeleteRows(0, {1, 1}).ok());   // duplicate
  EXPECT_FALSE(log.DeleteRows(0, {0, 99}).ok());  // out of range
  TableDelta delta = log.Snapshot(0);
  EXPECT_EQ(delta.epoch, 0);
  EXPECT_EQ(delta.rows_deleted, 0);
  EXPECT_EQ(delta.columns[1].deleted, 0);  // no phantom deletions
  EXPECT_EQ(db->row_count(0), 6);
}

TEST(ChangeLogTest, UpdateRecordsBothSides) {
  auto db = SmallDb();
  ChangeLog log(db.get());
  ASSERT_TRUE(log.UpdateValues(0, 1, {{0, 77}, {1, 88}}).ok());
  TableDelta delta = log.Snapshot(0);
  EXPECT_EQ(delta.rows_updated, 2);
  EXPECT_EQ(delta.columns[1].inserted, 2);  // new values
  EXPECT_EQ(delta.columns[1].deleted, 2);   // old values
  EXPECT_EQ(db->GetTableVersion(0)->column(1)[0], 77);
  EXPECT_EQ(db->GetTableVersion(0)->column(1)[1], 88);
}

TEST(ChangeLogTest, RebaseHandsOutDeltaInstallsAnchorAndResets) {
  auto db = SmallDb();
  ChangeLog log(db.get());
  ASSERT_TRUE(log.InsertRows(0, {{6, 70}}).ok());

  Status status = log.Rebase(0, [&](const TableDelta& delta,
                                    const TableAnchor& old_anchor,
                                    const Snapshot& snapshot) {
    EXPECT_EQ(delta.rows_inserted, 1);
    EXPECT_EQ(old_anchor.base_row_count, 6);
    // The pinned snapshot holds exactly the data the delta describes.
    EXPECT_EQ(snapshot.row_count(0), 7);
    TableAnchor next;
    next.base_row_count = snapshot.row_count(0);
    next.stats_version = 3;
    next.columns.resize(2);
    return StatusOr<TableAnchor>(std::move(next));
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(log.anchor(0).base_row_count, 7);
  EXPECT_EQ(log.anchor(0).stats_version, 3);
  EXPECT_EQ(log.Snapshot(0).epoch, 0);  // delta reset

  // A failing reanalyze leaves anchor and delta untouched.
  ASSERT_TRUE(log.InsertRows(0, {{7, 71}}).ok());
  status = log.Rebase(0, [](const TableDelta&, const TableAnchor&,
                            const Snapshot&) {
    return StatusOr<TableAnchor>(Status::Internal("boom"));
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(log.Snapshot(0).rows_inserted, 1);
  EXPECT_EQ(log.anchor(0).stats_version, 3);
}

TEST(ChangeLogTest, IngestDuringRebaseIsNotBlockedAndSurvivesIt) {
  // The old contract held the ingest lock across the re-ANALYZE, so this
  // test would deadlock: the callback itself ingests a batch. Now the
  // callback runs unlocked; the mid-rebase batch is buffered raw and
  // replayed into the fresh delta against the NEW anchor.
  auto db = SmallDb();
  ChangeLog log(db.get());
  ASSERT_TRUE(log.InsertRows(0, {{6, 70}}).ok());

  Status status = log.Rebase(0, [&](const TableDelta& delta,
                                    const TableAnchor&, const Snapshot& snap) {
    EXPECT_EQ(delta.rows_inserted, 1);
    EXPECT_EQ(snap.row_count(0), 7);  // pinned BEFORE the racing batch
    // A writer streams in while the "rescan" runs.
    EXPECT_TRUE(log.InsertRows(0, {{7, 25}}).ok());
    EXPECT_TRUE(log.UpdateValues(0, 1, {{0, 15}}).ok());
    TableAnchor next;
    next.base_row_count = snap.row_count(0);
    next.stats_version = 1;
    next.columns.resize(2);
    next.columns[1].histogram_bounds = {10, 20, 30};  // 2 buckets
    next.columns[1].mcv_values = {25};
    return StatusOr<TableAnchor>(std::move(next));
  });
  ASSERT_TRUE(status.ok());

  // The post-rebase delta describes exactly the mid-rebase mutations,
  // attributed against the NEW anchor's buckets/MCVs.
  TableDelta delta = log.Snapshot(0);
  EXPECT_EQ(delta.rows_inserted, 1);
  EXPECT_EQ(delta.rows_updated, 1);
  EXPECT_EQ(delta.epoch, 2);
  const ColumnDeltaSketch& v = delta.columns[1];
  EXPECT_EQ(v.inserted, 2);  // 25 (insert) + 15 (update's new value)
  EXPECT_EQ(v.deleted, 1);   // 10 (update's old value)
  ASSERT_EQ(v.mcv_inserts.size(), 1u);
  EXPECT_EQ(v.mcv_inserts[0], 1);       // the 25 hit the new anchor's MCV
  ASSERT_EQ(v.bucket_inserts.size(), 4u);
  EXPECT_EQ(v.bucket_inserts[1], 1);    // the 15 landed in [10, 20]
  EXPECT_EQ(v.bucket_deletes[1], 1);    // the removed 10, same bucket
  EXPECT_EQ(db->row_count(0), 8);

  // A failing rebase keeps the old anchor, and the mid-rebase mutations
  // are already in the live delta — nothing is lost or double-counted.
  status = log.Rebase(0, [&](const TableDelta&, const TableAnchor&,
                             const Snapshot&) {
    EXPECT_TRUE(log.InsertRows(0, {{8, 26}}).ok());
    return StatusOr<TableAnchor>(Status::Internal("boom"));
  });
  EXPECT_FALSE(status.ok());
  delta = log.Snapshot(0);
  EXPECT_EQ(delta.rows_inserted, 2);  // 25 earlier + 26 during the failure
  EXPECT_EQ(log.anchor(0).stats_version, 1);
}

TEST(ChangeLogTest, SketchStateIsIngestOrderIndependent) {
  // The same multiset of mutations in two different batch splits must yield
  // identical sketches — the drift bench's thread-count-invariance gate.
  auto MakeRows = [](int64_t lo, int64_t hi) {
    std::vector<std::vector<int64_t>> rows;
    for (int64_t i = lo; i < hi; ++i) rows.push_back({i, (i * 7) % 40});
    return rows;
  };
  auto db_a = SmallDb();
  ChangeLog log_a(db_a.get());
  ASSERT_TRUE(log_a.InsertRows(0, MakeRows(6, 106)).ok());

  auto db_b = SmallDb();
  ChangeLog log_b(db_b.get());
  ASSERT_TRUE(log_b.InsertRows(0, MakeRows(6, 30)).ok());
  ASSERT_TRUE(log_b.InsertRows(0, MakeRows(30, 80)).ok());
  ASSERT_TRUE(log_b.InsertRows(0, MakeRows(80, 106)).ok());

  TableDelta a = log_a.Snapshot(0);
  TableDelta b = log_b.Snapshot(0);
  EXPECT_EQ(a.rows_inserted, b.rows_inserted);
  for (size_t c = 0; c < a.columns.size(); ++c) {
    EXPECT_EQ(a.columns[c].inserted, b.columns[c].inserted);
    EXPECT_EQ(a.columns[c].min_inserted, b.columns[c].min_inserted);
    EXPECT_EQ(a.columns[c].max_inserted, b.columns[c].max_inserted);
    EXPECT_TRUE(a.columns[c].distinct_inserted ==
                b.columns[c].distinct_inserted);
  }
}

TEST(ChangeLogTest, ConcurrentWritersOnDistinctTablesAreSafe) {
  Schema schema;
  ColumnDef id;
  id.name = "id";
  id.kind = ColumnKind::kPrimaryKey;
  ASSERT_TRUE(schema.AddTable({"a", 1, {id}}).ok());
  ASSERT_TRUE(schema.AddTable({"b", 1, {id}}).ok());
  Database db(schema);
  ASSERT_TRUE(db.SetTableData(0, {{{0}}, 1}).ok());
  ASSERT_TRUE(db.SetTableData(1, {{{0}}, 1}).ok());
  ChangeLog log(&db);

  constexpr int kBatches = 50;
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kBatches; ++i) {
        BALSA_CHECK(log.InsertRows(t, {{100 + i}}).ok(), "insert");
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(log.Snapshot(0).rows_inserted, kBatches);
  EXPECT_EQ(log.Snapshot(1).rows_inserted, kBatches);
  EXPECT_EQ(db.row_count(0), 1 + kBatches);
  EXPECT_EQ(db.row_count(1), 1 + kBatches);
}

}  // namespace
}  // namespace balsa
