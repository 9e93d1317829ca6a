// Differential test: the chunked MVCC store vs. a naive reference model.
//
// Each seed drives a randomized mutation stream — appends, swap-remove
// deletes, cell-update batches, occasional full re-installs — through both
// the Database (chunked columns, O(batch) publication, COW chunks) and a
// plain std::vector<std::vector<int64_t>> model that re-applies the same
// operations the obvious way. After every publication the pinned snapshot
// must agree with the model bitwise: sampled rows each step, full columns
// plus hash-index lookups and executor scans (index and full-scan paths,
// which must be identical) at checkpoints. Both tables cross chunk
// boundaries. One table is never installed and grows only by appends,
// exercising the schema-width materialization path.
//
// Values include NULLs (exactly -1) and other negatives, so the hash
// indexes and filter loops are forced to tell the two apart. Zero
// divergence over >= 8 seeds x >= 1500 steps.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/plan/query_builder.h"
#include "src/storage/column_store.h"
#include "src/util/rng.h"

#if defined(__SANITIZE_THREAD__)
#define BALSA_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BALSA_TSAN_BUILD 1
#endif
#endif

namespace balsa {
namespace {

#ifdef BALSA_TSAN_BUILD
constexpr int kStepsPerSeed = 300;  // instrumented build: keep CI fast
#else
constexpr int kStepsPerSeed = 1500;
#endif
constexpr int kNumSeeds = 8;
constexpr int kNumColumns = 3;
constexpr int kCheckpointEvery = 100;
/// Values land in [-2, kDomain); -1 is NULL, -2 is a real negative.
constexpr int64_t kDomain = 200;

Schema DiffSchema() {
  Schema schema;
  auto col = [](const char* name) {
    ColumnDef c;
    c.name = name;
    c.kind = ColumnKind::kAttribute;
    c.domain_size = kDomain;
    return c;
  };
  // Table 0 is installed and mutated; table 1 is never installed and grows
  // only by appends.
  EXPECT_TRUE(
      schema.AddTable({"base", 16, {col("a"), col("b"), col("c")}}).ok());
  EXPECT_TRUE(
      schema.AddTable({"fresh", 16, {col("a"), col("b"), col("c")}}).ok());
  return schema;
}

/// The reference model: the same table as flat vectors, mutated the
/// straightforward way.
struct RefTable {
  std::vector<std::vector<int64_t>> cols =
      std::vector<std::vector<int64_t>>(kNumColumns);

  int64_t rows() const { return static_cast<int64_t>(cols[0].size()); }

  void Append(const std::vector<std::vector<int64_t>>& new_rows) {
    for (const auto& row : new_rows) {
      for (int c = 0; c < kNumColumns; ++c) {
        cols[static_cast<size_t>(c)].push_back(row[static_cast<size_t>(c)]);
      }
    }
  }

  /// Swap-remove with the store's contract: ids applied in descending
  /// order, each freed slot filled by the then-last row.
  void Remove(std::vector<int64_t> ids) {
    std::sort(ids.begin(), ids.end(), std::greater<int64_t>());
    for (int64_t id : ids) {
      for (auto& col : cols) {
        col[static_cast<size_t>(id)] = col.back();
        col.pop_back();
      }
    }
  }

  void Set(int column, const std::vector<std::pair<int64_t, int64_t>>& ups) {
    for (const auto& [row, value] : ups) {
      cols[static_cast<size_t>(column)][static_cast<size_t>(row)] = value;
    }
  }
};

int64_t RandomValue(Rng* rng) {
  return rng->UniformInt(-2, kDomain - 1);  // includes NULL (-1) and -2
}

std::vector<std::vector<int64_t>> RandomRows(Rng* rng, int n) {
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<int64_t> row;
    for (int c = 0; c < kNumColumns; ++c) row.push_back(RandomValue(rng));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Cheap per-step check: row counts plus a handful of sampled cells.
void CheckSampled(const Snapshot& snap, int t, const RefTable& ref,
                  Rng* rng, int64_t* divergences) {
  if (snap.row_count(t) != ref.rows()) {
    (*divergences)++;
    return;
  }
  if (ref.rows() == 0) return;
  for (int s = 0; s < 16; ++s) {
    int64_t row = static_cast<int64_t>(
        rng->Uniform(static_cast<uint64_t>(ref.rows())));
    int c = static_cast<int>(rng->Uniform(kNumColumns));
    if (snap.column(t, c)[row] !=
        ref.cols[static_cast<size_t>(c)][static_cast<size_t>(row)]) {
      (*divergences)++;
    }
  }
}

/// Full bitwise check: every cell, hash-index lookups, and executor scans
/// through both code paths (index and full scan; the full scan through both
/// the bitmap and the fused single-filter kernel) against
/// reference-computed answers.
void CheckFull(const Schema& schema, const Database& db, int t,
               const RefTable& ref, Rng* rng, int64_t* divergences) {
  Snapshot snap = db.GetSnapshot();
  ASSERT_EQ(snap.row_count(t), ref.rows());
  for (int c = 0; c < kNumColumns; ++c) {
    if (snap.column(t, c).Materialize() != ref.cols[static_cast<size_t>(c)]) {
      (*divergences)++;
    }
  }
  if (ref.rows() == 0) return;

  // Hash index vs. a reference scan (ascending ids; NULL never indexed).
  const int idx_col = static_cast<int>(rng->Uniform(kNumColumns));
  const int64_t idx_val = RandomValue(rng);
  std::vector<uint32_t> expected_ids;
  const auto& ref_col = ref.cols[static_cast<size_t>(idx_col)];
  for (size_t r = 0; r < ref_col.size(); ++r) {
    if (ref_col[r] == idx_val && !IsNull(idx_val)) {
      expected_ids.push_back(static_cast<uint32_t>(r));
    }
  }
  if (snap.index(t, idx_col).Lookup(idx_val) != expected_ids) {
    (*divergences)++;
  }

  // Executor scans: kEq + kGe conjunction, expected answer from the model.
  const int64_t eq_val = rng->UniformInt(0, kDomain / 4);  // keep selective
  const int64_t ge_val = rng->UniformInt(-2, kDomain - 1);
  QueryBuilder builder(&schema, "diff");
  auto query = builder.From(t == 0 ? "base" : "fresh", "x")
                   .Filter("x.a", PredOp::kEq, eq_val)
                   .Filter("x.b", PredOp::kGe, ge_val)
                   .Build();
  ASSERT_TRUE(query.ok());
  std::vector<uint32_t> expected_rows;
  for (size_t r = 0; r < ref.cols[0].size(); ++r) {
    if (ref.cols[0][r] == eq_val && !IsNull(ref.cols[1][r]) &&
        ref.cols[1][r] >= ge_val) {
      expected_rows.push_back(static_cast<uint32_t>(r));
    }
  }
  for (bool use_index : {true, false}) {
    ExecutorOptions options;
    options.use_index_for_eq = use_index;
    Executor executor(snap, options);
    auto result = executor.Scan(*query, 0);
    ASSERT_TRUE(result.ok());
    if (result->tuples[0] != expected_rows) (*divergences)++;
  }

  // A lone range filter takes the fused single-filter kernel.
  QueryBuilder range_builder(&schema, "diff_range");
  auto range = range_builder.From(t == 0 ? "base" : "fresh", "x")
                   .Filter("x.b", PredOp::kGe, ge_val)
                   .Build();
  ASSERT_TRUE(range.ok());
  std::vector<uint32_t> expected_range;
  for (size_t r = 0; r < ref.cols[1].size(); ++r) {
    if (!IsNull(ref.cols[1][r]) && ref.cols[1][r] >= ge_val) {
      expected_range.push_back(static_cast<uint32_t>(r));
    }
  }
  auto range_result = Executor(snap).Scan(*range, 0);
  ASSERT_TRUE(range_result.ok());
  if (range_result->tuples[0] != expected_range) (*divergences)++;
}

void RunSeed(uint64_t seed) {
  Schema schema = DiffSchema();
  Database db(schema);
  RefTable refs[2];
  Rng rng(seed);

  // Install table 0 big enough to span several chunks; table 1 starts
  // empty and is only ever appended to.
  {
    const int64_t rows = 2 * kChunkRows + 700;
    TableData data;
    data.row_count = rows;
    data.columns.resize(kNumColumns);
    for (int c = 0; c < kNumColumns; ++c) {
      for (int64_t r = 0; r < rows; ++r) {
        data.columns[static_cast<size_t>(c)].push_back(RandomValue(&rng));
      }
      refs[0].cols[static_cast<size_t>(c)] =
          data.columns[static_cast<size_t>(c)];
    }
    ASSERT_TRUE(db.SetTableData(0, std::move(data)).ok());
  }

  int64_t divergences = 0;
  for (int step = 0; step < kStepsPerSeed; ++step) {
    // Table 1 only appends; table 0 gets the full mutation mix.
    const int t = rng.Bernoulli(0.25) ? 1 : 0;
    RefTable& ref = refs[t];
    const uint64_t op = t == 1 ? 0 : rng.Uniform(100);
    if (op < 35) {
      // Append 1..64 rows (appends slightly outweigh deletes, so tables
      // drift across chunk boundaries over the run).
      auto rows = RandomRows(&rng, static_cast<int>(rng.Uniform(64)) + 1);
      ASSERT_TRUE(db.AppendRows(t, rows).ok());
      ref.Append(rows);
    } else if (op < 65 && ref.rows() > 0) {
      // Remove up to 48 distinct rows.
      const int64_t n = ref.rows();
      std::vector<int64_t> ids;
      for (int i = 0; i < 48 && static_cast<int64_t>(ids.size()) < n; ++i) {
        int64_t id =
            static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n)));
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      ASSERT_TRUE(db.RemoveRows(t, ids).ok());
      ref.Remove(ids);
    } else if (ref.rows() > 0) {
      // Update up to 32 cells of one column.
      const int column = static_cast<int>(rng.Uniform(kNumColumns));
      std::vector<std::pair<int64_t, int64_t>> updates;
      for (int i = 0; i < static_cast<int>(rng.Uniform(32)) + 1; ++i) {
        updates.push_back(
            {static_cast<int64_t>(
                 rng.Uniform(static_cast<uint64_t>(ref.rows()))),
             RandomValue(&rng)});
      }
      ASSERT_TRUE(db.SetValues(t, column, updates).ok());
      ref.Set(column, updates);
    }

    Snapshot snap = db.GetSnapshot();
    CheckSampled(snap, t, ref, &rng, &divergences);
    ASSERT_EQ(divergences, 0) << "seed " << seed << " step " << step;
    if ((step + 1) % kCheckpointEvery == 0) {
      for (int table = 0; table < 2; ++table) {
        CheckFull(schema, db, table, refs[table], &rng, &divergences);
        ASSERT_EQ(divergences, 0)
            << "seed " << seed << " checkpoint at step " << step << " table "
            << table;
      }
    }
  }
  for (int table = 0; table < 2; ++table) {
    CheckFull(schema, db, table, refs[table], &rng, &divergences);
  }
  EXPECT_EQ(divergences, 0) << "seed " << seed;
}

TEST(StorageDifferentialTest, RandomizedStreamsMatchReferenceModel) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) RunSeed(seed);
}

}  // namespace
}  // namespace balsa
