#include "src/storage/column_store.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>

namespace balsa {

namespace {

using ColumnPtr = TableVersion::ColumnPtr;
using ChunkPtr = ChunkedColumn::ChunkPtr;

/// Tracks copy-on-write chunk edits for one column: chunks are materialized
/// into mutable value vectors on first write and resealed at the end, so a
/// mutation's cost is O(chunks touched), never O(table).
class ColumnEditor {
 public:
  explicit ColumnEditor(const ChunkedColumn& prev)
      : chunks_(prev.ChunkPtrs()), size_(prev.size()) {}

  int64_t size() const { return size_; }

  int64_t Get(int64_t row) const {
    size_t ci = static_cast<size_t>(row >> kChunkShift);
    if (ci == cached_ci_) {
      return (*cached_)[static_cast<size_t>(row & kChunkMask)];
    }
    auto it = dirty_.find(ci);
    return it != dirty_.end()
               ? it->second[static_cast<size_t>(row & kChunkMask)]
               : (*chunks_[ci])[row & kChunkMask];
  }

  void Set(int64_t row, int64_t value) {
    Load(static_cast<size_t>(row >> kChunkShift))
        [static_cast<size_t>(row & kChunkMask)] = value;
  }

  /// Removes the last row (swap-remove's shrink step), dropping the tail
  /// chunk when it empties.
  void PopBack() {
    size_t tail = static_cast<size_t>((size_ - 1) >> kChunkShift);
    std::vector<int64_t>& values = Load(tail);
    values.pop_back();
    if (values.empty()) {
      dirty_.erase(tail);
      chunks_.pop_back();
      cached_ci_ = SIZE_MAX;
      cached_ = nullptr;
    }
    size_--;
  }

  /// Reseals every dirtied chunk and returns the new immutable column.
  ColumnPtr Finish() {
    chunks_copied_ = static_cast<int64_t>(dirty_.size());
    chunks_shared_ = static_cast<int64_t>(chunks_.size()) - chunks_copied_;
    for (auto& [ci, values] : dirty_) {
      chunks_[ci] = Chunk::Seal(std::move(values));
    }
    return std::make_shared<const ChunkedColumn>(std::move(chunks_));
  }

  /// Valid after Finish(): how many chunks this edit materialized vs
  /// carried into the new column by pointer (the storage copy-on-write
  /// counters the database exports).
  int64_t chunks_copied() const { return chunks_copied_; }
  int64_t chunks_shared() const { return chunks_shared_; }

 private:
  std::vector<int64_t>& Load(size_t ci) {
    if (ci == cached_ci_) return *cached_;
    auto it = dirty_.find(ci);
    if (it == dirty_.end()) {
      it = dirty_.emplace(ci, chunks_[ci]->values()).first;
    }
    // Entries are node-stable across inserts, so the one-entry cache (the
    // swap-remove loop hammers the same one or two chunks) stays valid
    // until PopBack erases an emptied tail.
    cached_ci_ = ci;
    cached_ = &it->second;
    return it->second;
  }

  std::vector<ChunkPtr> chunks_;
  std::unordered_map<size_t, std::vector<int64_t>> dirty_;
  size_t cached_ci_ = SIZE_MAX;
  std::vector<int64_t>* cached_ = nullptr;
  int64_t size_;
  int64_t chunks_copied_ = 0;
  int64_t chunks_shared_ = 0;
};

/// New column = the shared full-chunk prefix of `prev` + a rebuilt tail
/// covering the old partial chunk (if any) and `appended`. When the append
/// stays within the tail — the common case — the prefix is shared whole
/// with one refcount bump: no per-chunk work, so the append costs O(batch)
/// regardless of table size. Crossing a seal boundary copies the prefix's
/// pointer lists once, amortized O(1/kChunkRows) per appended row.
ColumnPtr AppendToColumn(const ChunkedColumn& prev,
                         const std::vector<int64_t>& appended) {
  std::vector<int64_t> tail;
  tail.reserve(static_cast<size_t>(kChunkRows));
  if (prev.tail() != nullptr) {
    const std::vector<int64_t>& old_tail = prev.tail()->values();
    tail.insert(tail.end(), old_tail.begin(), old_tail.end());
  }
  std::vector<ChunkPtr> grown;  // chunks this append filled and sealed
  for (int64_t v : appended) {
    tail.push_back(v);
    if (static_cast<int64_t>(tail.size()) == kChunkRows) {
      grown.push_back(Chunk::Seal(std::move(tail)));
      tail = {};
      tail.reserve(static_cast<size_t>(kChunkRows));
    }
  }
  ChunkPtr new_tail;
  if (!tail.empty()) new_tail = Chunk::Seal(std::move(tail));
  if (grown.empty()) {
    return std::make_shared<const ChunkedColumn>(prev.full_chunks(),
                                                 std::move(new_tail));
  }
  auto full =
      std::make_shared<ChunkedColumn::FullChunks>(*prev.full_chunks());
  full->chunks.reserve(full->chunks.size() + grown.size());
  full->data.reserve(full->chunks.capacity());
  for (ChunkPtr& chunk : grown) {
    full->data.push_back(chunk->data());
    full->chunks.push_back(std::move(chunk));
  }
  return std::make_shared<const ChunkedColumn>(std::move(full),
                                               std::move(new_tail));
}

}  // namespace

const std::vector<uint32_t> HashIndex::kEmpty;

StatusOr<std::vector<int64_t>> ValidateAndSortRowIds(
    int64_t row_count, std::vector<int64_t> row_ids) {
  std::sort(row_ids.begin(), row_ids.end(), std::greater<int64_t>());
  for (size_t i = 0; i < row_ids.size(); ++i) {
    if (row_ids[i] < 0 || row_ids[i] >= row_count) {
      return Status::OutOfRange("row " + std::to_string(row_ids[i]));
    }
    if (i > 0 && row_ids[i] == row_ids[i - 1]) {
      return Status::InvalidArgument("duplicate row id in delete");
    }
  }
  return row_ids;
}

HashIndex::HashIndex(const ChunkedColumn& column) {
  buckets_.reserve(static_cast<size_t>(column.size()) / 2 + 1);
  uint32_t row = 0;
  for (int ci = 0; ci < column.num_chunks(); ++ci) {
    const Chunk& chunk = column.chunk(ci);
    const int64_t* values = chunk.data();
    const int64_t n = chunk.size();
    for (int64_t i = 0; i < n; ++i, ++row) {
      if (IsNull(values[i])) continue;  // only NULL (-1) is unindexed
      buckets_[values[i]].push_back(row);
    }
  }
}

const std::vector<uint32_t>& HashIndex::Lookup(int64_t value) const {
  auto it = buckets_.find(value);
  return it == buckets_.end() ? kEmpty : it->second;
}

TableVersion::TableVersion(std::vector<ColumnPtr> columns, int64_t row_count,
                           uint64_t epoch)
    : columns_(std::move(columns)), row_count_(row_count), epoch_(epoch) {}

const HashIndex& TableVersion::index(int c) const {
  MutexLock lock(indexes_mu_);
  auto it = indexes_.find(c);
  if (it == indexes_.end()) {
    it = indexes_
             .emplace(c, std::make_shared<const HashIndex>(
                             *columns_[static_cast<size_t>(c)]))
             .first;
  }
  return *it->second;
}

void TableVersion::InheritIndexes(const TableVersion& prev) {
  // Called before publication (no concurrent access to *this* yet), but
  // prev's cache may be racing lazy builds. Taking our own (uncontended)
  // mutex too keeps the guarded writes to indexes_ provably locked; the
  // prev-then-this order has a single call site, so no inversion exists.
  MutexLock prev_lock(prev.indexes_mu_);
  MutexLock lock(indexes_mu_);
  for (const auto& [c, index] : prev.indexes_) {
    if (c < num_columns() &&
        columns_[static_cast<size_t>(c)] == prev.columns_[static_cast<size_t>(c)]) {
      indexes_.emplace(c, index);
    }
  }
}

void TableVersion::CollectChunkBytes(std::unordered_set<const Chunk*>* seen,
                                     size_t* total) const {
  for (const ColumnPtr& c : columns_) c->CollectChunkBytes(seen, total);
}

size_t TableVersion::DataBytes() const {
  std::unordered_set<const Chunk*> seen;
  size_t total = 0;
  CollectChunkBytes(&seen, &total);
  return total;
}

void Snapshot::CollectChunkBytes(std::unordered_set<const Chunk*>* seen,
                                 size_t* total) const {
  for (const auto& t : tables_) t->CollectChunkBytes(seen, total);
}

size_t Snapshot::DataBytes() const {
  std::unordered_set<const Chunk*> seen;
  size_t total = 0;
  CollectChunkBytes(&seen, &total);
  return total;
}

size_t RetainedDataBytes(std::initializer_list<const Snapshot*> snapshots) {
  std::unordered_set<const Chunk*> seen;
  size_t total = 0;
  for (const Snapshot* snapshot : snapshots) {
    snapshot->CollectChunkBytes(&seen, &total);
  }
  return total;
}

Database::Database(Schema schema) : schema_(std::move(schema)) {
  versions_.reserve(static_cast<size_t>(schema_.num_tables()));
  for (int t = 0; t < schema_.num_tables(); ++t) {
    // Every table starts as an empty schema-width version, so appends to a
    // never-installed table validate row width and materialize columns.
    std::vector<ColumnPtr> columns(schema_.table(t).columns.size(),
                                   std::make_shared<const ChunkedColumn>());
    versions_.push_back(
        std::make_shared<const TableVersion>(std::move(columns), 0, 0));
  }
}

void Database::Publish(int table_idx, std::shared_ptr<TableVersion> version) {
  publications_.Inc();
  MutexLock lock(versions_mu_);
  version->epoch_ = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  versions_[static_cast<size_t>(table_idx)] = std::move(version);
}

Database::StorageStats Database::storage_stats() const {
  StorageStats stats;
  stats.publications = publications_.Value();
  stats.chunks_copied = chunks_copied_.Value();
  stats.chunks_shared = chunks_shared_.Value();
  return stats;
}

void Database::AttachMetrics(obs::MetricsRegistry* registry) {
  registrations_.clear();
  if (registry == nullptr) return;
  registrations_.push_back(
      registry->AttachCounter("storage.publications", &publications_));
  registrations_.push_back(
      registry->AttachCounter("storage.chunks_copied", &chunks_copied_));
  registrations_.push_back(
      registry->AttachCounter("storage.chunks_shared", &chunks_shared_));
  registrations_.push_back(registry->AttachCallbackGauge(
      "storage.publication_epoch",
      [this] { return static_cast<int64_t>(publication_epoch()); }));
  // Snapshot-time walk over the current versions' chunks (dedup by chunk):
  // costly enough that it must never run on a mutation path, cheap enough
  // for an export.
  registrations_.push_back(registry->AttachCallbackGauge(
      "storage.retained_bytes",
      [this] { return static_cast<int64_t>(DataBytes()); }));
}

Snapshot Database::GetSnapshot() const {
  MutexLock lock(versions_mu_);
  return Snapshot(&schema_, epoch_.load(std::memory_order_relaxed),
                  versions_);
}

std::shared_ptr<const TableVersion> Database::GetTableVersion(
    int table_idx) const {
  MutexLock lock(versions_mu_);
  return versions_[static_cast<size_t>(table_idx)];
}

bool Database::HasData(int table_idx) const {
  if (table_idx < 0 || table_idx >= schema_.num_tables()) return false;
  return GetTableVersion(table_idx)->row_count() > 0;
}

int64_t Database::row_count(int table_idx) const {
  if (table_idx < 0 || table_idx >= schema_.num_tables()) return 0;
  return GetTableVersion(table_idx)->row_count();
}

TableData Database::CopyTableData(int table_idx) const {
  std::shared_ptr<const TableVersion> version = GetTableVersion(table_idx);
  TableData data;
  data.row_count = version->row_count();
  data.columns.reserve(static_cast<size_t>(version->num_columns()));
  for (int c = 0; c < version->num_columns(); ++c) {
    data.columns.push_back(version->column(c).Materialize());
  }
  return data;
}

size_t Database::DataBytes() const { return GetSnapshot().DataBytes(); }

Status Database::SetTableData(int table_idx, TableData data) {
  if (table_idx < 0 || table_idx >= schema_.num_tables()) {
    return Status::OutOfRange("table index " + std::to_string(table_idx));
  }
  const TableDef& def = schema_.table(table_idx);
  if (data.columns.size() != def.columns.size()) {
    return Status::InvalidArgument("column count mismatch for " + def.name);
  }
  for (const auto& col : data.columns) {
    if (static_cast<int64_t>(col.size()) != data.row_count) {
      return Status::InvalidArgument("ragged columns in " + def.name);
    }
  }
  std::vector<ColumnPtr> columns;
  columns.reserve(data.columns.size());
  for (auto& col : data.columns) {
    columns.push_back(ChunkedColumn::FromValues(std::move(col)));
  }
  Publish(table_idx,
          std::make_shared<TableVersion>(std::move(columns), data.row_count,
                                         0));
  return Status::OK();
}

Status Database::AppendRows(int table_idx,
                            const std::vector<std::vector<int64_t>>& rows) {
  if (table_idx < 0 || table_idx >= schema_.num_tables()) {
    return Status::OutOfRange("table index " + std::to_string(table_idx));
  }
  std::shared_ptr<const TableVersion> prev = GetTableVersion(table_idx);
  // Validate against the schema's width, not the (possibly never
  // installed) materialized width: zero-width rows must never be accepted.
  const size_t num_columns = schema_.table(table_idx).columns.size();
  for (const auto& row : rows) {
    if (row.size() != num_columns) {
      return Status::InvalidArgument("appended row has " +
                                     std::to_string(row.size()) + " values, " +
                                     "table has " +
                                     std::to_string(num_columns) + " columns");
    }
  }
  std::vector<ColumnPtr> columns;
  columns.reserve(num_columns);
  std::vector<int64_t> appended(rows.size());
  int64_t copied = 0;
  int64_t shared = 0;
  for (size_t c = 0; c < num_columns; ++c) {
    const ChunkedColumn& prev_column = prev->column(static_cast<int>(c));
    // Every full chunk of the previous column rides into the new version by
    // pointer; only the rebuilt tail (and any chunks the batch filled) is
    // materialized — the copied/shared split IS the O(batch) evidence.
    const int prev_full =
        prev_column.num_chunks() - (prev_column.tail() != nullptr ? 1 : 0);
    for (size_t r = 0; r < rows.size(); ++r) appended[r] = rows[r][c];
    columns.push_back(AppendToColumn(prev_column, appended));
    copied += columns.back()->num_chunks() - prev_full;
    shared += prev_full;
  }
  chunks_copied_.Inc(copied);
  chunks_shared_.Inc(shared);
  Publish(table_idx, std::make_shared<TableVersion>(
                         std::move(columns),
                         prev->row_count() + static_cast<int64_t>(rows.size()),
                         0));
  return Status::OK();
}

Status Database::RemoveRows(int table_idx, std::vector<int64_t> row_ids) {
  if (table_idx < 0 || table_idx >= schema_.num_tables()) {
    return Status::OutOfRange("table index " + std::to_string(table_idx));
  }
  std::shared_ptr<const TableVersion> prev = GetTableVersion(table_idx);
  // Validate everything before building the new version: a rejected call
  // publishes nothing. Descending order keeps every pending id valid while
  // earlier removals swap the (shrinking) tail into freed slots.
  BALSA_ASSIGN_OR_RETURN(row_ids,
                         ValidateAndSortRowIds(prev->row_count(),
                                               std::move(row_ids)));
  std::vector<ColumnPtr> columns;
  columns.reserve(static_cast<size_t>(prev->num_columns()));
  int64_t remaining = prev->row_count() - static_cast<int64_t>(row_ids.size());
  for (int c = 0; c < prev->num_columns(); ++c) {
    ColumnEditor editor(prev->column(c));
    for (int64_t row : row_ids) {
      int64_t last = editor.size() - 1;
      if (row != last) editor.Set(row, editor.Get(last));
      editor.PopBack();
    }
    columns.push_back(editor.Finish());
    chunks_copied_.Inc(editor.chunks_copied());
    chunks_shared_.Inc(editor.chunks_shared());
  }
  Publish(table_idx, std::make_shared<TableVersion>(std::move(columns),
                                                    remaining, 0));
  return Status::OK();
}

Status Database::SetValues(
    int table_idx, int column_idx,
    const std::vector<std::pair<int64_t, int64_t>>& updates) {
  if (table_idx < 0 || table_idx >= schema_.num_tables()) {
    return Status::OutOfRange("table index " + std::to_string(table_idx));
  }
  std::shared_ptr<const TableVersion> prev = GetTableVersion(table_idx);
  if (column_idx < 0 || column_idx >= prev->num_columns()) {
    return Status::OutOfRange("column " + std::to_string(column_idx));
  }
  for (const auto& [row, value] : updates) {
    (void)value;
    if (row < 0 || row >= prev->row_count()) {
      return Status::OutOfRange("row " + std::to_string(row));
    }
  }
  // Copy-on-write: only the written column's touched chunks are copied; the
  // other columns — and any hash indexes already built over them — are
  // shared with the old version, as are the written column's clean chunks.
  std::vector<ColumnPtr> columns;
  columns.reserve(static_cast<size_t>(prev->num_columns()));
  for (int c = 0; c < prev->num_columns(); ++c) {
    columns.push_back(prev->column_ptr(c));
    if (c != column_idx) chunks_shared_.Inc(prev->column(c).num_chunks());
  }
  ColumnEditor editor(prev->column(column_idx));
  for (const auto& [row, value] : updates) editor.Set(row, value);
  columns[static_cast<size_t>(column_idx)] = editor.Finish();
  chunks_copied_.Inc(editor.chunks_copied());
  chunks_shared_.Inc(editor.chunks_shared());
  auto version = std::make_shared<TableVersion>(std::move(columns),
                                                prev->row_count(), 0);
  version->InheritIndexes(*prev);
  Publish(table_idx, std::move(version));
  return Status::OK();
}

}  // namespace balsa
