// In-memory column store with MVCC-style snapshot reads over chunked
// columns. Every table is an immutable, refcounted TableVersion whose
// columns are refcounted chunk lists (see chunk.h) plus lazily built hash
// indexes; mutations build a new version — copy-on-write at CHUNK
// granularity — and publish it under a short pointer-swap lock, so
// publishing an appended batch costs O(batch), not O(table): all existing
// full chunks are shared by pointer and only the partial tail (plus the new
// rows) is materialized. Readers pin a Snapshot (one version per table at a
// single publication epoch) and scan, probe indexes, or ANALYZE against it
// for as long as they like: writers never block readers, readers never
// block writers, and a retired version's unshared chunks are freed when its
// last snapshot drops.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/catalog/schema.h"
#include "src/obs/metrics.h"
#include "src/storage/chunk.h"
#include "src/util/thread_annotations.h"
#include "src/util/status.h"

namespace balsa {

/// One materialized table: column-major int64 data. The *input* format for
/// SetTableData / the data generator, and the output of CopyTableData;
/// internally tables live as immutable chunked TableVersions.
struct TableData {
  std::vector<std::vector<int64_t>> columns;
  int64_t row_count = 0;
};

/// Validates a delete batch (every id unique and in [0, row_count)) and
/// returns it sorted descending — the order RemoveRows consumes. Shared by
/// Database::RemoveRows and the ChangeLog, which must validate *before*
/// folding deletions into its sketches and can then hand the sorted batch
/// straight through without re-copying.
StatusOr<std::vector<int64_t>> ValidateAndSortRowIds(
    int64_t row_count, std::vector<int64_t> row_ids);

/// Hash index: value -> row ids. Built lazily per (version, column) by one
/// pass over the column's chunks; NULLs (exactly kNullValue) are not
/// indexed, every other value — negatives included — is.
class HashIndex {
 public:
  explicit HashIndex(const ChunkedColumn& column);

  /// Row ids whose column value equals `value` (empty if none), ascending.
  const std::vector<uint32_t>& Lookup(int64_t value) const;

  size_t num_distinct() const { return buckets_.size(); }

 private:
  std::unordered_map<int64_t, std::vector<uint32_t>> buckets_;
  static const std::vector<uint32_t> kEmpty;
};

/// One immutable published state of one table. Data never changes after
/// publication; the hash-index cache is the only mutable member and is
/// mutex-guarded (lazy builds over immutable chunks are idempotent).
class TableVersion {
 public:
  using ColumnPtr = std::shared_ptr<const ChunkedColumn>;

  TableVersion(std::vector<ColumnPtr> columns, int64_t row_count,
               uint64_t epoch);

  int64_t row_count() const { return row_count_; }
  /// Publication epoch this version was installed at (0 = initial state).
  uint64_t epoch() const { return epoch_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  const ChunkedColumn& column(int c) const {
    return *columns_[static_cast<size_t>(c)];
  }
  const ColumnPtr& column_ptr(int c) const {
    return columns_[static_cast<size_t>(c)];
  }

  /// The hash index on column `c`, built on first use. The reference is
  /// valid as long as this version is pinned (e.g. by a Snapshot).
  const HashIndex& index(int c) const;

  /// Bytes of chunk data reachable from this version, each distinct chunk
  /// counted once even when shared between columns.
  size_t DataBytes() const;
  /// Folds this version's chunks into a caller-owned dedup accumulator.
  void CollectChunkBytes(std::unordered_set<const Chunk*>* seen,
                         size_t* total) const;

 private:
  friend class Database;
  /// Shares the already-built indexes of `prev` for every column whose
  /// data pointer is unchanged — a single-column update republishes a table
  /// without re-indexing the other columns.
  void InheritIndexes(const TableVersion& prev);

  std::vector<ColumnPtr> columns_;
  int64_t row_count_ = 0;
  uint64_t epoch_ = 0;
  mutable Mutex indexes_mu_;
  mutable std::unordered_map<int, std::shared_ptr<const HashIndex>> indexes_
      GUARDED_BY(indexes_mu_);
};

/// A pinned, immutable view of the whole database at one publication epoch.
/// Cheap to copy (shared_ptr per table); holding one keeps every referenced
/// version alive. The executor, the card oracle, ANALYZE, and the bench
/// scan checkers all read through a Snapshot, never the live Database.
class Snapshot {
 public:
  Snapshot() = default;

  const Schema& schema() const { return *schema_; }
  /// Publication epoch at capture: two snapshots with equal epochs see
  /// bitwise-identical data. Memoized true cardinalities are tagged by it.
  uint64_t epoch() const { return epoch_; }
  int num_tables() const { return static_cast<int>(tables_.size()); }

  bool HasData(int t) const {
    return t >= 0 && t < num_tables() && table(t).row_count() > 0;
  }
  int64_t row_count(int t) const { return table(t).row_count(); }
  const TableVersion& table(int t) const {
    return *tables_[static_cast<size_t>(t)];
  }
  const ChunkedColumn& column(int t, int c) const {
    return table(t).column(c);
  }
  /// Hash index on (table, column) of *this snapshot's* data, built lazily.
  const HashIndex& index(int t, int c) const { return table(t).index(c); }

  /// Total bytes of chunk data reachable from this snapshot, every distinct
  /// chunk counted once however many columns or tables share it.
  size_t DataBytes() const;
  void CollectChunkBytes(std::unordered_set<const Chunk*>* seen,
                         size_t* total) const;

 private:
  friend class Database;
  Snapshot(const Schema* schema, uint64_t epoch,
           std::vector<std::shared_ptr<const TableVersion>> tables)
      : schema_(schema), epoch_(epoch), tables_(std::move(tables)) {}

  const Schema* schema_ = nullptr;
  uint64_t epoch_ = 0;
  std::vector<std::shared_ptr<const TableVersion>> tables_;
};

/// Bytes of chunk data retained across `snapshots` together, counting every
/// chunk once however many snapshots/versions share it — the number that
/// proves publication is O(batch): pinning the versions before and after a
/// 1-row append on a huge table retains ~one extra chunk, not one extra
/// table.
size_t RetainedDataBytes(std::initializer_list<const Snapshot*> snapshots);

/// The database: schema + versioned chunked tables. Readers pin snapshots;
/// mutations publish new versions.
class Database {
 public:
  explicit Database(Schema schema);

  const Schema& schema() const { return schema_; }

  /// Installs generated data for table `table_idx` (publishes a version).
  Status SetTableData(int table_idx, TableData data);

  // --- Mutation API (the adaptive statistics change stream) ---------------
  //
  // Each call builds a new immutable TableVersion (copy-on-write at chunk
  // granularity) and publishes it atomically, so mutations are safe
  // concurrently with any reader: in-flight snapshots keep the version they
  // pinned. Concurrent writers to the *same* table must still be serialized
  // by the caller — the ChangeLog's per-table ingest lock does this;
  // writers to different tables share only Publish's pointer swap.
  // Memoized true cardinalities expire on their own: every publication
  // advances the epoch that tags them.

  /// Appends row-major `rows` (one vector of column values per row) in
  /// O(batch + tail chunk): every existing full chunk is shared with the
  /// previous version. Works on a table whose data was never installed: its
  /// columns materialize at the schema's width, and rows are validated
  /// against that width.
  Status AppendRows(int table_idx,
                    const std::vector<std::vector<int64_t>>& rows);

  /// Removes rows by id via swap-remove: the last row moves into each freed
  /// slot, so row ids are NOT stable across a delete. `row_ids` may be in
  /// any order and must be unique and in range. Copies only the chunks the
  /// swap-removes touch (the freed slots' chunks and the shrinking tail).
  Status RemoveRows(int table_idx, std::vector<int64_t> row_ids);

  /// Overwrites a batch of (row, value) cells in one column: validates the
  /// whole batch first, then publishes one new version copying only the
  /// touched chunks of that column (the other columns — and their built
  /// indexes — are shared).
  Status SetValues(int table_idx, int column_idx,
                   const std::vector<std::pair<int64_t, int64_t>>& updates);

  // --- Read API ------------------------------------------------------------

  /// Pins the current version of every table at one publication epoch.
  Snapshot GetSnapshot() const;

  /// Pins the current version of one table.
  std::shared_ptr<const TableVersion> GetTableVersion(int table_idx) const;

  /// Monotonic counter advanced by every publication (any table). A cached
  /// result tagged with an older epoch was computed against retired data.
  uint64_t publication_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  bool HasData(int table_idx) const;
  int64_t row_count(int table_idx) const;

  /// Deep copy of one table's current data (tests and setup-time tooling;
  /// hot paths read through a Snapshot instead).
  TableData CopyTableData(int table_idx) const;

  /// Total bytes of chunk data in the current versions (each distinct chunk
  /// once).
  size_t DataBytes() const;

  // --- Observability -------------------------------------------------------

  struct StorageStats {
    int64_t publications = 0;    // versions installed (any table)
    int64_t chunks_copied = 0;   // chunks materialized by mutations
    int64_t chunks_shared = 0;   // chunks carried by pointer into new versions
  };
  StorageStats storage_stats() const;

  /// Attaches the publication/chunk counters plus two snapshot-time gauges —
  /// "storage.publication_epoch" and "storage.retained_bytes" (current
  /// versions' DataBytes) — under the "storage." prefix. The
  /// copied-vs-shared counters are what make the O(batch) publication claim
  /// observable: an append to a huge table shares thousands of chunks and
  /// copies ~one per column. Registry is borrowed and must outlive the
  /// database; calling again replaces the previous attachments.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  /// Installs `version` (stamping the next epoch) as table `table_idx`'s
  /// current state.
  void Publish(int table_idx, std::shared_ptr<TableVersion> version);

  Schema schema_;
  /// Guards versions_ pointer loads/stores and the epoch stamp — never held
  /// during data copies or index builds.
  mutable Mutex versions_mu_;
  std::vector<std::shared_ptr<const TableVersion>> versions_
      GUARDED_BY(versions_mu_);
  /// Intentionally unguarded: the epoch is an atomic published alongside
  /// versions_ — stamped under versions_mu_ but read lock-free by
  /// publication_epoch() pollers (monotone, so a torn cut is impossible).
  std::atomic<uint64_t> epoch_{0};

  obs::Counter publications_;
  obs::Counter chunks_copied_;
  obs::Counter chunks_shared_;
  /// Registry attachments (empty until AttachMetrics). Last member.
  std::vector<obs::Registration> registrations_;
};

}  // namespace balsa
