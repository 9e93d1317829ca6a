#include "src/storage/change_log.h"

#include <algorithm>
#include <string>
#include <utility>

namespace balsa {

namespace {

const ColumnAnchor kNoAnchor;

/// Bucket of `value` against anchored bounds: 0 = below bounds.front(),
/// B+1 = above bounds.back(), else 1 + the histogram bucket index.
size_t OverflowBucket(const std::vector<int64_t>& bounds, int64_t value) {
  if (value < bounds.front()) return 0;
  if (value > bounds.back()) return bounds.size();
  // upper_bound - 1 is the last bound <= value; bucket i spans
  // [bounds[i], bounds[i+1]].
  auto it = std::upper_bound(bounds.begin(), bounds.end(), value);
  size_t idx = static_cast<size_t>(it - bounds.begin());
  if (idx == 0) return 1;                       // value == bounds.front()
  if (idx >= bounds.size()) idx = bounds.size() - 1;  // value == back()
  return idx;  // 1-based histogram bucket (idx-1) + 1
}

ColumnDeltaSketch MakeSketch(const ColumnAnchor& anchor) {
  ColumnDeltaSketch sketch;
  if (anchor.histogram_bounds.size() >= 2) {
    sketch.bucket_inserts.assign(anchor.histogram_bounds.size() + 1, 0);
    sketch.bucket_deletes.assign(anchor.histogram_bounds.size() + 1, 0);
  }
  sketch.mcv_inserts.assign(anchor.mcv_values.size(), 0);
  sketch.mcv_deletes.assign(anchor.mcv_values.size(), 0);
  return sketch;
}

TableDelta MakeDelta(const TableAnchor& anchor, size_t num_columns) {
  TableDelta delta;
  delta.columns.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    delta.columns.push_back(MakeSketch(
        c < anchor.columns.size() ? anchor.columns[c] : kNoAnchor));
  }
  return delta;
}

}  // namespace

ChangeLog::ChangeLog(Database* db) : db_(db) {
  tables_.reserve(static_cast<size_t>(db->schema().num_tables()));
  for (int t = 0; t < db->schema().num_tables(); ++t) {
    auto state = std::make_unique<TableState>();
    state->anchor.base_row_count = db->row_count(t);
    state->delta =
        MakeDelta(state->anchor, db->schema().table(t).columns.size());
    tables_.push_back(std::move(state));
  }
}

Status ChangeLog::CheckTable(int table) const {
  if (table < 0 || table >= num_tables()) {
    return Status::OutOfRange("table " + std::to_string(table));
  }
  return Status::OK();
}

void ChangeLog::Record(const ColumnAnchor& anchor, int64_t value, bool add,
                       ColumnDeltaSketch* sketch) {
  if (IsNull(value)) {
    (add ? sketch->inserted_nulls : sketch->deleted_nulls)++;
    return;
  }
  if (add) {
    if (sketch->inserted == 0) {
      sketch->min_inserted = sketch->max_inserted = value;
    } else {
      sketch->min_inserted = std::min(sketch->min_inserted, value);
      sketch->max_inserted = std::max(sketch->max_inserted, value);
    }
    sketch->inserted++;
    sketch->distinct_inserted.Add(value);
  } else {
    sketch->deleted++;
  }
  // MCV occurrences are attributed to the MCV counters, everything else to
  // the anchored histogram buckets — mirroring how ANALYZE splits mass.
  for (size_t m = 0; m < anchor.mcv_values.size(); ++m) {
    if (anchor.mcv_values[m] == value) {
      (add ? sketch->mcv_inserts[m] : sketch->mcv_deletes[m])++;
      return;
    }
  }
  auto& buckets = add ? sketch->bucket_inserts : sketch->bucket_deletes;
  if (!buckets.empty()) {
    size_t bucket = OverflowBucket(anchor.histogram_bounds, value);
    buckets[bucket]++;
    if (add && bucket == 0) {
      sketch->below_sum += value;
      sketch->below_inserts++;
    } else if (add && bucket == buckets.size() - 1) {
      sketch->above_sum += value;
      sketch->above_inserts++;
    }
  }
}

void ChangeLog::ReplayPending(TableState* state) {
  PendingRaw pending = std::move(state->pending);
  state->pending = PendingRaw{};
  for (size_t c = 0; c < state->delta.columns.size(); ++c) {
    const ColumnAnchor& anchor = c < state->anchor.columns.size()
                                     ? state->anchor.columns[c]
                                     : kNoAnchor;
    ColumnDeltaSketch& sketch = state->delta.columns[c];
    if (c < pending.added.size()) {
      for (int64_t value : pending.added[c]) {
        Record(anchor, value, /*add=*/true, &sketch);
      }
    }
    if (c < pending.removed.size()) {
      for (int64_t value : pending.removed[c]) {
        Record(anchor, value, /*add=*/false, &sketch);
      }
    }
  }
  state->delta.rows_inserted += pending.rows_inserted;
  state->delta.rows_deleted += pending.rows_deleted;
  state->delta.rows_updated += pending.rows_updated;
  state->delta.epoch += pending.epochs;
}

Status ChangeLog::InsertRows(int table,
                             const std::vector<std::vector<int64_t>>& rows) {
  BALSA_RETURN_IF_ERROR(CheckTable(table));
  if (rows.empty()) return Status::OK();
  TableState& state = *tables_[static_cast<size_t>(table)];
  {
    MutexLock lock(state.mu);
    BALSA_RETURN_IF_ERROR(db_->AppendRows(table, rows));
    for (size_t c = 0; c < state.delta.columns.size(); ++c) {
      const ColumnAnchor& anchor = c < state.anchor.columns.size()
                                       ? state.anchor.columns[c]
                                       : kNoAnchor;
      for (const auto& row : rows) {
        Record(anchor, row[c], /*add=*/true, &state.delta.columns[c]);
      }
    }
    state.delta.rows_inserted += static_cast<int64_t>(rows.size());
    state.delta.epoch++;
    if (state.rebasing) {
      // The in-flight rebase will rebuild the delta from scratch; keep the
      // raw values so they can be re-folded against the new anchor.
      state.pending.added.resize(state.delta.columns.size());
      for (size_t c = 0; c < state.delta.columns.size(); ++c) {
        for (const auto& row : rows) state.pending.added[c].push_back(row[c]);
      }
      state.pending.rows_inserted += static_cast<int64_t>(rows.size());
      state.pending.epochs++;
    }
  }
  rows_inserted_.Inc(static_cast<int64_t>(rows.size()));
  batches_.Inc();
  return Status::OK();
}

Status ChangeLog::DeleteRows(int table, std::vector<int64_t> row_ids) {
  BALSA_RETURN_IF_ERROR(CheckTable(table));
  if (row_ids.empty()) return Status::OK();
  TableState& state = *tables_[static_cast<size_t>(table)];
  {
    MutexLock lock(state.mu);
    // Validate fully before folding anything into the sketches: a rejected
    // delete must not leave phantom deletions behind.
    std::shared_ptr<const TableVersion> version = db_->GetTableVersion(table);
    BALSA_ASSIGN_OR_RETURN(row_ids,
                           ValidateAndSortRowIds(version->row_count(),
                                                 std::move(row_ids)));
    // Capture the removed values before the swap-remove disturbs row ids.
    for (size_t c = 0; c < state.delta.columns.size(); ++c) {
      const ColumnAnchor& anchor = c < state.anchor.columns.size()
                                       ? state.anchor.columns[c]
                                       : kNoAnchor;
      for (int64_t row : row_ids) {
        Record(anchor, version->column(static_cast<int>(c))
                           [static_cast<size_t>(row)],
               /*add=*/false, &state.delta.columns[c]);
      }
    }
    if (state.rebasing) {
      state.pending.removed.resize(state.delta.columns.size());
      for (size_t c = 0; c < state.delta.columns.size(); ++c) {
        for (int64_t row : row_ids) {
          state.pending.removed[c].push_back(
              version->column(static_cast<int>(c))[static_cast<size_t>(row)]);
        }
      }
      state.pending.rows_deleted += static_cast<int64_t>(row_ids.size());
      state.pending.epochs++;
    }
    const int64_t num_deleted = static_cast<int64_t>(row_ids.size());
    BALSA_RETURN_IF_ERROR(db_->RemoveRows(table, std::move(row_ids)));
    state.delta.rows_deleted += num_deleted;
    state.delta.epoch++;
    rows_deleted_.Inc(num_deleted);
  }
  batches_.Inc();
  return Status::OK();
}

Status ChangeLog::UpdateValues(
    int table, int column,
    const std::vector<std::pair<int64_t, int64_t>>& updates) {
  BALSA_RETURN_IF_ERROR(CheckTable(table));
  if (updates.empty()) return Status::OK();
  TableState& state = *tables_[static_cast<size_t>(table)];
  {
    MutexLock lock(state.mu);
    std::shared_ptr<const TableVersion> version = db_->GetTableVersion(table);
    if (column < 0 || column >= version->num_columns()) {
      return Status::OutOfRange("column " + std::to_string(column));
    }
    // Validate the whole batch before mutating or sketching anything: a
    // rejected update must not leave partial data or phantom records.
    for (const auto& [row, value] : updates) {
      (void)value;
      if (row < 0 || row >= version->row_count()) {
        return Status::OutOfRange("row " + std::to_string(row));
      }
    }
    ColumnDeltaSketch& sketch =
        state.delta.columns[static_cast<size_t>(column)];
    const ColumnAnchor& anchor =
        static_cast<size_t>(column) < state.anchor.columns.size()
            ? state.anchor.columns[static_cast<size_t>(column)]
            : kNoAnchor;
    const ChunkedColumn& old_values = version->column(column);
    for (const auto& [row, value] : updates) {
      Record(anchor, old_values[row], /*add=*/false, &sketch);
      Record(anchor, value, /*add=*/true, &sketch);
    }
    if (state.rebasing) {
      state.pending.added.resize(state.delta.columns.size());
      state.pending.removed.resize(state.delta.columns.size());
      for (const auto& [row, value] : updates) {
        state.pending.removed[static_cast<size_t>(column)].push_back(
            old_values[row]);
        state.pending.added[static_cast<size_t>(column)].push_back(value);
      }
      state.pending.rows_updated += static_cast<int64_t>(updates.size());
      state.pending.epochs++;
    }
    BALSA_RETURN_IF_ERROR(db_->SetValues(table, column, updates));
    state.delta.rows_updated += static_cast<int64_t>(updates.size());
    state.delta.epoch++;
  }
  values_updated_.Inc(static_cast<int64_t>(updates.size()));
  batches_.Inc();
  return Status::OK();
}

TableDelta ChangeLog::Snapshot(int table) const {
  const TableState& state = *tables_[static_cast<size_t>(table)];
  MutexLock lock(state.mu);
  return state.delta;
}

TableAnchor ChangeLog::anchor(int table) const {
  const TableState& state = *tables_[static_cast<size_t>(table)];
  MutexLock lock(state.mu);
  return state.anchor;
}

void ChangeLog::SetAnchor(int table, TableAnchor anchor) {
  TableState& state = *tables_[static_cast<size_t>(table)];
  MutexLock lock(state.mu);
  while (state.rebasing) state.rebase_cv.Wait(state.mu);
  state.anchor = std::move(anchor);
  state.delta =
      MakeDelta(state.anchor,
                db_->schema().table(table).columns.size());
}

Status ChangeLog::Rebase(
    int table, const std::function<StatusOr<TableAnchor>(
                   const TableDelta&, const TableAnchor&,
                   const balsa::Snapshot&)>& reanalyze) {
  BALSA_RETURN_IF_ERROR(CheckTable(table));
  TableState& state = *tables_[static_cast<size_t>(table)];
  TableDelta delta;
  TableAnchor old_anchor;
  balsa::Snapshot snapshot;
  {
    MutexLock lock(state.mu);
    while (state.rebasing) state.rebase_cv.Wait(state.mu);
    state.rebasing = true;
    state.pending = PendingRaw{};
    // Captured under the ingest lock, so the snapshot holds exactly the
    // data the delta describes relative to the anchor.
    delta = state.delta;
    old_anchor = state.anchor;
    snapshot = db_->GetSnapshot();
  }
  // The expensive part — an incremental merge or a full rescan of the
  // pinned snapshot — runs with writers live.
  StatusOr<TableAnchor> anchor = reanalyze(delta, old_anchor, snapshot);
  {
    MutexLock lock(state.mu);
    if (anchor.ok()) {
      state.anchor = std::move(anchor).value();
      state.delta =
          MakeDelta(state.anchor, db_->schema().table(table).columns.size());
      // Mutations that streamed in during the callback are not covered by
      // the new anchor; re-fold them so the delta stays exact.
      ReplayPending(&state);
    } else {
      // The live delta already absorbed the during-rebase mutations.
      state.pending = PendingRaw{};
    }
    state.rebasing = false;
  }
  state.rebase_cv.NotifyAll();
  // How many publications (any table) the stream landed while the unlocked
  // re-ANALYZE ran — the replay debt this rebase just paid off.
  rebase_epoch_lag_.Record(static_cast<double>(db_->publication_epoch() -
                                               snapshot.epoch()));
  return anchor.status();
}

void ChangeLog::AttachMetrics(obs::MetricsRegistry* registry) {
  registrations_.clear();
  if (registry == nullptr) return;
  registrations_.push_back(registry->AttachCounter(
      "storage.changelog.rows_inserted", &rows_inserted_));
  registrations_.push_back(registry->AttachCounter(
      "storage.changelog.rows_deleted", &rows_deleted_));
  registrations_.push_back(registry->AttachCounter(
      "storage.changelog.values_updated", &values_updated_));
  registrations_.push_back(
      registry->AttachCounter("storage.changelog.batches", &batches_));
  registrations_.push_back(registry->AttachHistogram(
      "storage.changelog.rebase_epoch_lag", &rebase_epoch_lag_));
}

}  // namespace balsa
