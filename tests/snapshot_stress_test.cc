// Concurrent readers vs. change-stream ingest through MVCC snapshots: the
// exclusion contract is gone, so executor scans, snapshot index lookups,
// ANALYZE rescans, and true-cardinality probes all race InsertRows /
// DeleteRows / UpdateValues — and must still observe internally consistent,
// torn-free data. Run under ThreadSanitizer in CI.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/plan/query_builder.h"
#include "src/stats/card_oracle.h"
#include "src/stats/table_stats.h"
#include "src/storage/change_log.h"
#include "src/util/logging.h"

namespace balsa {
namespace {

// Two tables; each gets exactly one writer (same-table writers are
// serialized by contract), every reader roams freely. Table rows maintain
// the invariant v == 3 * id or v == 5 * id, which every published version
// must satisfy: inserts write 3 * id, updates flip rows between the two
// multiples (so an in-place overwrite of pinned data would change a
// snapshot's checksum), and swap-remove moves whole rows.
Schema StressSchema(int tables = 2) {
  Schema schema;
  auto pk = [] {
    ColumnDef c;
    c.name = "id";
    c.kind = ColumnKind::kPrimaryKey;
    return c;
  };
  auto attr = [] {
    ColumnDef c;
    c.name = "v";
    c.kind = ColumnKind::kAttribute;
    c.domain_size = 1 << 20;
    return c;
  };
  for (int t = 0; t < tables; ++t) {
    EXPECT_TRUE(
        schema.AddTable({"t" + std::to_string(t), 256, {pk(), attr()}}).ok());
  }
  return schema;
}

std::unique_ptr<Database> StressDb(int tables = 2, int64_t rows = 256) {
  auto db = std::make_unique<Database>(StressSchema(tables));
  for (int t = 0; t < tables; ++t) {
    TableData data;
    data.row_count = rows;
    data.columns.resize(2);
    for (int64_t r = 0; r < rows; ++r) {
      data.columns[0].push_back(r);
      data.columns[1].push_back(3 * r);
    }
    EXPECT_TRUE(db->SetTableData(t, std::move(data)).ok());
  }
  return db;
}

/// One writer's deterministic ingest stream for its own table: grow, shrink,
/// and rewrite — always preserving v == 3 * id per published version.
void WriteBatches(ChangeLog* log, Database* db, int table, int batches,
                  uint64_t seed) {
  int64_t next_pk = 1000000 + static_cast<int64_t>(seed) * 1000000;
  for (int b = 0; b < batches; ++b) {
    std::vector<std::vector<int64_t>> rows;
    for (int i = 0; i < 8; ++i) {
      rows.push_back({next_pk, 3 * next_pk});
      next_pk++;
    }
    BALSA_CHECK(log->InsertRows(table, rows).ok(), "insert");
    // This thread is the table's only writer, so reading the current
    // version to derive updates/deletes is race-free.
    std::shared_ptr<const TableVersion> version = db->GetTableVersion(table);
    int64_t n = version->row_count();
    std::vector<std::pair<int64_t, int64_t>> updates;
    const int64_t multiple = b % 2 == 0 ? 5 : 3;
    for (int i = 0; i < 4; ++i) {
      int64_t row = (static_cast<int64_t>(b) * 37 + i * 11) % n;
      updates.push_back(
          {row, multiple * version->column(0)[static_cast<size_t>(row)]});
    }
    BALSA_CHECK(log->UpdateValues(table, 1, updates).ok(), "update");
    std::vector<int64_t> deletes;
    for (int i = 0; i < 8; ++i) deletes.push_back(n - 1 - i);
    BALSA_CHECK(log->DeleteRows(table, deletes).ok(), "delete");
  }
}

TEST(SnapshotStressTest, ReadersRaceIngestWithoutTearingOrBlocking) {
  auto db = StressDb();
  ChangeLog log(db.get());
  CardOracle oracle(db.get());
  const Schema& schema = db->schema();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};
  std::atomic<int64_t> scans{0};

  // Scan readers: pin a snapshot, verify the row invariant, and re-walk the
  // same snapshot to prove checksum stability (no torn reads, ever).
  auto scan_reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int t = 0; t < 2; ++t) {
        Snapshot snap = db->GetSnapshot();
        const auto& ids = snap.column(t, 0);
        const auto& vs = snap.column(t, 1);
        if (ids.size() != vs.size() ||
            static_cast<int64_t>(ids.size()) != snap.row_count(t)) {
          torn++;
          continue;
        }
        uint64_t sum1 = 0, sum2 = 0;
        for (int64_t r = 0; r < ids.size(); ++r) {
          if (vs[r] != 3 * ids[r] && vs[r] != 5 * ids[r]) torn++;
          sum1 += static_cast<uint64_t>(vs[r]);
        }
        for (int64_t r = 0; r < ids.size(); ++r) {
          sum2 += static_cast<uint64_t>(vs[r]);
        }
        if (sum1 != sum2) torn++;
        scans++;
      }
    }
  };

  // Index readers: a snapshot's lazily built hash index must agree with the
  // snapshot's own column, row by row.
  auto index_reader = [&] {
    int64_t probe = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Snapshot snap = db->GetSnapshot();
      const auto& ids = snap.column(0, 0);
      if (ids.empty()) continue;
      int64_t id = ids[static_cast<size_t>(probe++ % static_cast<int64_t>(
                                               ids.size()))];
      for (uint32_t r : snap.index(0, 1).Lookup(3 * id)) {
        if (snap.column(0, 1)[r] != 3 * id) torn++;
      }
    }
  };

  // ANALYZE + oracle readers: a full rescan and a true-cardinality probe
  // each describe one pinned epoch; internal consistency means the filtered
  // count can never exceed the snapshot-consistent row count.
  auto analyze_reader = [&] {
    QueryBuilder builder(&schema, "stress_scan");
    auto query = builder.From("t0", "a").Filter("a.v", PredOp::kGe, 0).Build();
    BALSA_CHECK(query.ok(), "query");
    query->set_id(1);
    while (!stop.load(std::memory_order_acquire)) {
      auto stats = AnalyzeTable(db->GetSnapshot(), 0);
      if (!stats.ok()) {
        torn++;
        continue;
      }
      auto card = oracle.Cardinality(*query, TableSet::Single(0));
      if (!card.ok()) torn++;
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(scan_reader);
  threads.emplace_back(scan_reader);
  threads.emplace_back(index_reader);
  threads.emplace_back(analyze_reader);
  std::vector<std::thread> writers;
  writers.emplace_back([&] { WriteBatches(&log, db.get(), 0, 60, 1); });
  writers.emplace_back([&] { WriteBatches(&log, db.get(), 1, 60, 2); });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : threads) r.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(scans.load(), 0);
  // Final state: sixty batches of +8 / -8 leave the row count unchanged,
  // and the invariant holds on a quiescent scan too.
  for (int t = 0; t < 2; ++t) {
    Snapshot snap = db->GetSnapshot();
    EXPECT_EQ(snap.row_count(t), 256);
    for (int64_t r = 0; r < snap.column(t, 0).size(); ++r) {
      int64_t id = snap.column(t, 0)[r];
      int64_t v = snap.column(t, 1)[r];
      EXPECT_TRUE(v == 3 * id || v == 5 * id) << "row " << r;
    }
  }
}

TEST(SnapshotStressTest, ScansAndIndexBuildsRaceFourWriters) {
  // Multi-chunk tables: full scans and index-path scans over the same
  // pinned snapshot must agree bitwise while four writers ingest (one per
  // table, per contract) and a mid-stream Rebase replays table 0's traffic.
  // Lazy index builds race the scans on the same versions. Run under
  // ThreadSanitizer in CI.
  constexpr int kTables = 4;
  const int64_t rows = 2 * kChunkRows + 300;
  auto db = StressDb(kTables, rows);
  ChangeLog log(db.get());
  const Schema& schema = db->schema();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};
  std::atomic<int64_t> scans{0};

  auto build = [&](int t, PredOp op, int64_t value) {
    QueryBuilder builder(&schema, "scan");
    auto query = builder.From(schema.table(t).name, "a")
                     .Filter("a.v", op, value)
                     .Build();
    BALSA_CHECK(query.ok(), "query");
    return std::move(query).value();
  };
  // One all-rows query per table (v is always a non-negative multiple of
  // id, so kGe 0 matches every row of every published version), plus
  // equality probes on ids in every initial chunk, at both multiples the
  // writers flip rows between.
  std::vector<Query> all_rows;
  std::vector<std::vector<Query>> probes(kTables);
  for (int t = 0; t < kTables; ++t) {
    all_rows.push_back(build(t, PredOp::kGe, 0));
    for (int64_t id : {int64_t{7}, kChunkRows + 1, rows - 9}) {
      for (int64_t multiple : {3, 5}) {
        probes[static_cast<size_t>(t)].push_back(
            build(t, PredOp::kEq, multiple * id));
      }
    }
  }

  // Scan readers: from one pinned snapshot, the full scan covers exactly
  // the snapshot's rows and each equality probe's index path returns
  // exactly its full scan.
  auto scan_reader = [&] {
    int t = 0;
    size_t probe = 0;
    ExecutorOptions full_scan;
    full_scan.use_index_for_eq = false;
    while (!stop.load(std::memory_order_acquire)) {
      Snapshot snap = db->GetSnapshot();
      auto all = Executor(snap, full_scan).Scan(all_rows[t], 0);
      if (!all.ok() || all->NumRows() != snap.row_count(t)) torn++;
      const auto& table_probes = probes[static_cast<size_t>(t)];
      const Query& eq = table_probes[probe++ % table_probes.size()];
      auto indexed = Executor(snap).Scan(eq, 0);
      auto scanned = Executor(snap, full_scan).Scan(eq, 0);
      if (!indexed.ok() || !scanned.ok() ||
          indexed->tuples[0] != scanned->tuples[0]) {
        torn++;
      }
      scans++;
      t = (t + 1) % kTables;
    }
  };

  // Index readers: force lazy builds on fresh versions while scans and
  // writers run; every hit must hold the looked-up value in the same
  // snapshot.
  auto index_reader = [&] {
    int64_t probe = 0;
    int t = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Snapshot snap = db->GetSnapshot();
      const auto& ids = snap.column(t, 0);
      if (!ids.empty()) {
        int64_t id = ids[probe++ % ids.size()];
        for (uint32_t r : snap.index(t, 1).Lookup(3 * id)) {
          if (snap.column(t, 1)[r] != 3 * id) torn++;
        }
      }
      t = (t + 1) % kTables;
    }
  };

  std::vector<std::thread> readers;
  readers.emplace_back(scan_reader);
  readers.emplace_back(scan_reader);
  readers.emplace_back(index_reader);
  std::vector<std::thread> writers;
  for (int t = 0; t < kTables; ++t) {
    writers.emplace_back(
        [&, t] { WriteBatches(&log, db.get(), t, 40, t + 1); });
  }

  // Mid-rebase replay: a Rebase on table 0 runs its rescan while table 0's
  // writer keeps streaming; the pinned snapshot must stay frozen under it.
  std::thread rebaser([&] {
    Status status = log.Rebase(
        0, [&](const TableDelta&, const TableAnchor&,
               const Snapshot& pinned) -> StatusOr<TableAnchor> {
          const int64_t pinned_rows = pinned.row_count(0);
          ExecutorOptions options;
          options.use_index_for_eq = false;
          for (int pass = 0; pass < 3; ++pass) {
            auto result = Executor(pinned, options).Scan(all_rows[0], 0);
            BALSA_CHECK(result.ok(), "rebase scan");
            if (result->NumRows() != pinned_rows) torn++;
            std::this_thread::yield();
          }
          TableAnchor anchor;
          anchor.base_row_count = pinned_rows;
          anchor.stats_version = 1;
          anchor.columns.resize(2);
          return anchor;
        });
    BALSA_CHECK(status.ok(), "rebase");
  });

  for (auto& w : writers) w.join();
  rebaser.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(scans.load(), 0);
  // +8 / -8 per batch: every table ends where it started, invariant intact.
  Snapshot snap = db->GetSnapshot();
  for (int t = 0; t < kTables; ++t) {
    EXPECT_EQ(snap.row_count(t), rows);
    for (int64_t r = 0; r < snap.row_count(t); ++r) {
      int64_t id = snap.column(t, 0)[r];
      int64_t v = snap.column(t, 1)[r];
      ASSERT_TRUE(v == 3 * id || v == 5 * id)
          << "table " << t << " row " << r;
    }
  }
}

TEST(SnapshotStressTest, RebaseRescanRacesIngestAndStaysExact) {
  // A full-rescan Rebase (the ReanalyzeScheduler fallback) runs on its
  // pinned snapshot while the table's writer keeps streaming; afterwards
  // the delta describes exactly what landed since the snapshot.
  auto db = StressDb();
  ChangeLog log(db.get());

  std::atomic<bool> in_callback{false};
  std::thread writer([&] {
    // Wait until the rescan is provably in flight, then ingest.
    while (!in_callback.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (int b = 0; b < 10; ++b) {
      std::vector<std::vector<int64_t>> rows;
      for (int i = 0; i < 4; ++i) {
        int64_t pk = 5000 + b * 4 + i;
        rows.push_back({pk, 3 * pk});
      }
      BALSA_CHECK(log.InsertRows(0, rows).ok(), "insert");
    }
  });

  Status status = log.Rebase(
      0, [&](const TableDelta&, const TableAnchor&,
             const Snapshot& snapshot) -> StatusOr<TableAnchor> {
        in_callback.store(true, std::memory_order_release);
        // The pinned snapshot never changes, however long the rescan takes.
        const int64_t pinned_rows = snapshot.row_count(0);
        TableStats rescanned;
        for (int pass = 0; pass < 5; ++pass) {
          auto stats = AnalyzeTable(snapshot, 0);
          BALSA_CHECK(stats.ok(), "analyze");
          BALSA_CHECK(stats->row_count == pinned_rows, "torn rescan");
          rescanned = std::move(stats).value();
          std::this_thread::yield();
        }
        TableAnchor anchor;
        anchor.base_row_count = rescanned.row_count;
        anchor.stats_version = 1;
        anchor.columns.resize(2);
        return anchor;
      });
  writer.join();
  ASSERT_TRUE(status.ok());

  // The anchor reflects the pinned snapshot (256 rows); the delta absorbed
  // every row the writer streamed during the rescan.
  EXPECT_EQ(log.anchor(0).base_row_count, 256);
  EXPECT_EQ(log.Snapshot(0).rows_inserted, 40);
  EXPECT_EQ(db->row_count(0), 256 + 40);
}

}  // namespace
}  // namespace balsa
