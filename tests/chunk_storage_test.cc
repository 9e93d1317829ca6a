// Chunk-boundary regressions for the chunked column store: publication must
// share every untouched chunk by pointer (asserted via chunk_ptr identity
// and dedup byte accounting), appends landing exactly on a seal boundary
// must keep the full-chunks-except-last invariant, swap-remove must move
// rows across chunk boundaries correctly, and full scans must treat
// negative values as real while excluding only exactly kNullValue.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/plan/query_builder.h"
#include "src/storage/column_store.h"

namespace balsa {
namespace {

Schema OneTableSchema(int num_attrs = 1) {
  Schema schema;
  ColumnDef id;
  id.name = "id";
  id.kind = ColumnKind::kPrimaryKey;
  std::vector<ColumnDef> cols = {id};
  for (int i = 0; i < num_attrs; ++i) {
    ColumnDef v;
    v.name = "v" + std::to_string(i);
    v.kind = ColumnKind::kAttribute;
    v.domain_size = 1 << 20;
    cols.push_back(v);
  }
  EXPECT_TRUE(schema.AddTable({"t", 16, cols}).ok());
  return schema;
}

/// Installs `rows` rows into table 0 with id == row and v0 == value_fn(row).
template <typename Fn>
void Install(Database* db, int64_t rows, Fn value_fn) {
  TableData data;
  data.row_count = rows;
  data.columns.resize(2);
  for (int64_t r = 0; r < rows; ++r) {
    data.columns[0].push_back(r);
    data.columns[1].push_back(value_fn(r));
  }
  ASSERT_TRUE(db->SetTableData(0, std::move(data)).ok());
}

TEST(ChunkStorageTest, ColumnInvariantAllButLastChunkFull) {
  for (int64_t rows : {int64_t{0}, int64_t{1}, kChunkRows - 1, kChunkRows,
                       kChunkRows + 1, 3 * kChunkRows + 100}) {
    std::vector<int64_t> values;
    for (int64_t i = 0; i < rows; ++i) values.push_back(i);
    auto column = ChunkedColumn::FromValues(values);
    EXPECT_EQ(column->size(), rows);
    EXPECT_EQ(column->num_chunks(), ChunkCountForRows(rows));
    for (int c = 0; c + 1 < column->num_chunks(); ++c) {
      EXPECT_TRUE(column->chunk(c).full());
    }
    for (int64_t i = 0; i < rows; ++i) EXPECT_EQ((*column)[i], i);
    // Range-for agrees with random access.
    int64_t expect = 0;
    for (int64_t v : *column) EXPECT_EQ(v, expect++);
    EXPECT_EQ(column->Materialize(), values);
  }
}

TEST(ChunkStorageTest, AppendSharesEveryFullChunkByPointer) {
  Database db(OneTableSchema());
  Install(&db, 2 * kChunkRows + 100, [](int64_t r) { return 7 * r; });
  auto v1 = db.GetTableVersion(0);

  ASSERT_TRUE(db.AppendRows(0, {{900000, 1}, {900001, 2}}).ok());
  auto v2 = db.GetTableVersion(0);
  ASSERT_EQ(v2->row_count(), 2 * kChunkRows + 102);
  for (int c = 0; c < 2; ++c) {
    const ChunkedColumn& before = v1->column(c);
    const ChunkedColumn& after = v2->column(c);
    ASSERT_EQ(after.num_chunks(), 3);
    // Both full chunks are the same object; only the partial tail was
    // rebuilt.
    EXPECT_EQ(after.chunk_ptr(0), before.chunk_ptr(0));
    EXPECT_EQ(after.chunk_ptr(1), before.chunk_ptr(1));
    EXPECT_NE(after.chunk_ptr(2), before.chunk_ptr(2));
  }
  EXPECT_EQ(v2->column(0)[2 * kChunkRows + 100], 900000);
  EXPECT_EQ(v2->column(1)[2 * kChunkRows + 101], 2);
}

TEST(ChunkStorageTest, AppendLandingExactlyOnSealBoundary) {
  Database db(OneTableSchema());
  Install(&db, kChunkRows - 3, [](int64_t r) { return r; });

  // Fill the tail to exactly kChunkRows: one full, sealed chunk.
  ASSERT_TRUE(
      db.AppendRows(0, {{10001, 1}, {10002, 2}, {10003, 3}}).ok());
  auto sealed = db.GetTableVersion(0);
  ASSERT_EQ(sealed->row_count(), kChunkRows);
  ASSERT_EQ(sealed->column(0).num_chunks(), 1);
  EXPECT_TRUE(sealed->column(0).chunk(0).full());

  // The next append opens a fresh chunk and shares the sealed one.
  ASSERT_TRUE(db.AppendRows(0, {{10004, 4}}).ok());
  auto next = db.GetTableVersion(0);
  ASSERT_EQ(next->column(0).num_chunks(), 2);
  EXPECT_EQ(next->column(0).chunk_ptr(0), sealed->column(0).chunk_ptr(0));
  EXPECT_EQ(next->column(0).chunk(1).size(), 1);
  EXPECT_EQ(next->column(0)[kChunkRows], 10004);
}

TEST(ChunkStorageTest, AppendSpanningMultipleNewChunks) {
  Database db(OneTableSchema());
  Install(&db, 100, [](int64_t r) { return r; });
  std::vector<std::vector<int64_t>> rows;
  const int64_t batch = 2 * kChunkRows + 50;
  for (int64_t i = 0; i < batch; ++i) rows.push_back({1000 + i, 2000 + i});
  ASSERT_TRUE(db.AppendRows(0, rows).ok());
  auto version = db.GetTableVersion(0);
  ASSERT_EQ(version->row_count(), 100 + batch);
  const ChunkedColumn& col = version->column(0);
  ASSERT_EQ(col.num_chunks(), ChunkCountForRows(100 + batch));
  for (int c = 0; c + 1 < col.num_chunks(); ++c) {
    EXPECT_TRUE(col.chunk(c).full());
  }
  for (int64_t i = 0; i < batch; ++i) EXPECT_EQ(col[100 + i], 1000 + i);
}

TEST(ChunkStorageTest, CrossBoundarySwapRemoveCopiesOnlyTouchedChunks) {
  Database db(OneTableSchema());
  const int64_t rows = 3 * kChunkRows + 100;
  Install(&db, rows, [](int64_t r) { return 10 * r; });
  auto before = db.GetTableVersion(0);

  // Remove one row in chunk 0: the last row (in the tail chunk) swaps into
  // its slot. Chunks 1 and 2 are untouched and must stay shared.
  ASSERT_TRUE(db.RemoveRows(0, {5}).ok());
  auto after = db.GetTableVersion(0);
  ASSERT_EQ(after->row_count(), rows - 1);
  for (int c = 0; c < 2; ++c) {
    EXPECT_NE(after->column(c).chunk_ptr(0), before->column(c).chunk_ptr(0));
    EXPECT_EQ(after->column(c).chunk_ptr(1), before->column(c).chunk_ptr(1));
    EXPECT_EQ(after->column(c).chunk_ptr(2), before->column(c).chunk_ptr(2));
    EXPECT_NE(after->column(c).chunk_ptr(3), before->column(c).chunk_ptr(3));
  }
  EXPECT_EQ(after->column(0)[5], rows - 1);       // moved id
  EXPECT_EQ(after->column(1)[5], 10 * (rows - 1));  // moved value

  // Remove the entire tail chunk: it disappears; all full chunks shared.
  std::vector<int64_t> tail_ids;
  for (int64_t r = 3 * kChunkRows; r < rows - 1; ++r) tail_ids.push_back(r);
  ASSERT_TRUE(db.RemoveRows(0, tail_ids).ok());
  auto popped = db.GetTableVersion(0);
  ASSERT_EQ(popped->row_count(), 3 * kChunkRows);
  ASSERT_EQ(popped->column(0).num_chunks(), 3);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(popped->column(0).chunk_ptr(c), after->column(0).chunk_ptr(c));
  }
}

TEST(ChunkStorageTest, SingleCellUpdateCopiesExactlyOneChunk) {
  Database db(OneTableSchema());
  const int64_t rows = 2 * kChunkRows + 100;
  Install(&db, rows, [](int64_t r) { return r % 97; });
  Snapshot before = db.GetSnapshot();
  const TableVersion& v1 = before.table(0);
  const size_t before_bytes = before.DataBytes();

  // Touch one cell in the middle chunk of column 1.
  const int64_t row = kChunkRows + 7;
  ASSERT_TRUE(db.SetValues(0, 1, {{row, 123456}}).ok());
  Snapshot after = db.GetSnapshot();
  const TableVersion& v2 = after.table(0);

  // Column 0 is shared whole; column 1 shares all but the dirty chunk.
  EXPECT_EQ(v2.column_ptr(0), v1.column_ptr(0));
  EXPECT_NE(v2.column_ptr(1), v1.column_ptr(1));
  EXPECT_EQ(v2.column(1).chunk_ptr(0), v1.column(1).chunk_ptr(0));
  EXPECT_NE(v2.column(1).chunk_ptr(1), v1.column(1).chunk_ptr(1));
  EXPECT_EQ(v2.column(1).chunk_ptr(2), v1.column(1).chunk_ptr(2));
  EXPECT_EQ(v2.column(1)[row], 123456);

  // Dedup accounting: the same bytes per snapshot, and pinning both costs
  // exactly one extra (full) chunk.
  EXPECT_EQ(after.DataBytes(), before_bytes);
  EXPECT_EQ(RetainedDataBytes({&before, &after}),
            before_bytes + kChunkRows * sizeof(int64_t));
}

TEST(ChunkStorageTest, OneRowAppendOnMillionRowTableRetainsOneChunk) {
  Database db(OneTableSchema(/*num_attrs=*/0));
  TableData data;
  data.row_count = 1'000'000;
  data.columns.resize(1);
  data.columns[0].reserve(1'000'000);
  for (int64_t r = 0; r < 1'000'000; ++r) data.columns[0].push_back(r);
  ASSERT_TRUE(db.SetTableData(0, std::move(data)).ok());

  Snapshot before = db.GetSnapshot();
  const size_t before_bytes = before.DataBytes();
  ASSERT_TRUE(db.AppendRows(0, {{1'000'000}}).ok());
  Snapshot after = db.GetSnapshot();

  // The new version costs ~one (partial) chunk over the old one, not
  // ~table: only the rebuilt tail is new, every full chunk is shared.
  const size_t retained = RetainedDataBytes({&before, &after});
  const int64_t tail_rows = 1'000'000 % kChunkRows + 1;
  EXPECT_EQ(retained, before_bytes +
                          static_cast<size_t>(tail_rows) * sizeof(int64_t));
  EXPECT_LE(retained - before_bytes, kChunkRows * sizeof(int64_t));
  EXPECT_EQ(after.DataBytes(),
            before_bytes + sizeof(int64_t));  // one more row's bytes
}

TEST(ChunkStorageTest, FullScanFindsNegativesAndNeverMatchesNull) {
  // Two chunks: the first holds only non-negative values, the second holds
  // the negatives (and NULLs). A full-scan kEq probe for a negative value
  // finds its one row in the second chunk; a probe for NULL matches
  // nothing even though the second chunk is full of -1s.
  Database db(OneTableSchema());
  TableData data;
  data.row_count = 2 * kChunkRows;
  data.columns.resize(2);
  for (int64_t r = 0; r < 2 * kChunkRows; ++r) {
    data.columns[0].push_back(r);
    if (r < kChunkRows) {
      data.columns[1].push_back(r % 100);
    } else if (r == kChunkRows) {
      data.columns[1].push_back(-55);
    } else {
      data.columns[1].push_back(r % 3 == 0 ? kNullValue : -(r % 50) - 2);
    }
  }
  ASSERT_TRUE(db.SetTableData(0, std::move(data)).ok());

  QueryBuilder neg_builder(&db.schema(), "neg");
  auto neg = neg_builder.From("t", "a")
                 .Filter("a.v0", PredOp::kEq, -55)
                 .Build();
  ASSERT_TRUE(neg.ok());
  QueryBuilder null_builder(&db.schema(), "null");
  auto null_probe = null_builder.From("t", "a")
                        .Filter("a.v0", PredOp::kEq, kNullValue)
                        .Build();
  ASSERT_TRUE(null_probe.ok());

  ExecutorOptions options;
  options.use_index_for_eq = false;
  Executor executor(&db, options);
  auto found = executor.Scan(*neg, 0);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->NumRows(), 1);
  EXPECT_EQ(found->tuples[0][0], static_cast<uint32_t>(kChunkRows));
  auto none = executor.Scan(*null_probe, 0);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->NumRows(), 0);
}

TEST(ChunkStorageTest, HashIndexSpansChunkBoundariesAscending) {
  // The same value in several chunks: lookups return ascending row ids
  // crossing every boundary, and negatives are indexed while NULLs are not.
  std::vector<int64_t> values(static_cast<size_t>(2 * kChunkRows + 10), 0);
  values[100] = -9;
  values[static_cast<size_t>(kChunkRows + 3)] = -9;
  values[static_cast<size_t>(2 * kChunkRows + 5)] = -9;
  values[200] = kNullValue;
  auto column = ChunkedColumn::FromValues(std::move(values));
  HashIndex index(*column);
  const std::vector<uint32_t> expected = {
      100, static_cast<uint32_t>(kChunkRows + 3),
      static_cast<uint32_t>(2 * kChunkRows + 5)};
  EXPECT_EQ(index.Lookup(-9), expected);
  EXPECT_TRUE(index.Lookup(kNullValue).empty());
}

}  // namespace
}  // namespace balsa
