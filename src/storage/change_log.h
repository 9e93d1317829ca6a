// The adaptive-statistics change stream: every insert/delete/update enters
// the database through this ingest API, which applies the mutation and folds
// it into per-table, per-column streaming sketches — counts, min/max, a
// small HyperLogLog distinct estimate, and histogram-bucket / MCV deltas
// anchored on the bounds of the last ANALYZE. The sketches are what the
// drift detector scores and what the incremental re-ANALYZE merges into
// TableStats, so statistics track a write-heavy stream without rescanning.
//
// Concurrency: one mutex per table serializes that table's writers. No
// ingest lock spans tables: writers to different tables meet only at the
// database's brief version-pointer swap (Database::Publish), and readers
// never take these locks at all (they pin storage snapshots). Rebase()
// captures the delta, the anchor, and a pinned Snapshot atomically, then
// runs the re-ANALYZE *without* the ingest lock — writers keep streaming
// during a full rescan. Mutations that land while a rebase is in flight are
// additionally buffered as raw values and replayed against the freshly
// installed anchor, so the post-rebase delta describes exactly (current
// data) - (new anchor's data). Sketch state is a deterministic fold over
// each table's mutation sequence (HLL register maxima and bucket counters
// commute), so any writer-thread partitioning that preserves per-table
// order yields bit-identical sketches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/obs/metrics.h"
#include "src/storage/column_store.h"
#include "src/util/hll.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace balsa {

/// Per-column reference frame from the last ANALYZE: the histogram bucket
/// bounds and MCV list that the delta sketch counts against.
struct ColumnAnchor {
  std::vector<int64_t> histogram_bounds;  // size B+1, may be empty
  std::vector<int64_t> mcv_values;
};

struct TableAnchor {
  int64_t base_row_count = 0;
  int64_t stats_version = 0;
  std::vector<ColumnAnchor> columns;
};

/// Streaming sketch of one column's deltas since the last anchor reset.
struct ColumnDeltaSketch {
  int64_t inserted = 0;        // non-null values added (inserts + updates)
  int64_t inserted_nulls = 0;
  int64_t deleted = 0;         // non-null values removed (deletes + updates)
  int64_t deleted_nulls = 0;
  int64_t min_inserted = 0;    // valid iff inserted > 0
  int64_t max_inserted = 0;
  Hll distinct_inserted;
  /// Counts of added/removed non-null, non-MCV values per anchored histogram
  /// bucket, with two overflow buckets: index 0 = below the anchor's lowest
  /// bound, index B+1 = above its highest. Size B+2, or empty when the
  /// anchor has no histogram.
  std::vector<int64_t> bucket_inserts;
  std::vector<int64_t> bucket_deletes;
  /// Sums of the inserted values that landed in the overflow buckets. The
  /// incremental merge places each overflow region's mass on a span whose
  /// mean matches, instead of assuming uniformity over [old_max, new_max] —
  /// drifted inserts usually cluster far from the old domain edge.
  int64_t below_sum = 0;
  int64_t above_sum = 0;
  int64_t below_inserts = 0;  // insert-only counts backing the means
  int64_t above_inserts = 0;
  /// Counts of added/removed occurrences of each anchored MCV value.
  std::vector<int64_t> mcv_inserts;
  std::vector<int64_t> mcv_deletes;
};

struct TableDelta {
  int64_t rows_inserted = 0;
  int64_t rows_deleted = 0;
  int64_t rows_updated = 0;
  /// Bumped once per recorded batch; 0 means untouched since the anchor.
  int64_t epoch = 0;
  std::vector<ColumnDeltaSketch> columns;
};

class ChangeLog {
 public:
  /// `db` is borrowed and must outlive the log. Sketches start empty with a
  /// boundless anchor (no histogram/MCV attribution) until SetAnchor or
  /// Rebase installs one from real statistics.
  explicit ChangeLog(Database* db);

  ChangeLog(const ChangeLog&) = delete;
  ChangeLog& operator=(const ChangeLog&) = delete;

  // --- Ingest: applies to the database AND records sketches ---------------

  /// Appends row-major `rows` to `table`.
  Status InsertRows(int table, const std::vector<std::vector<int64_t>>& rows);

  /// Deletes rows by id (swap-remove semantics, see Database::RemoveRows;
  /// ids must be unique and valid at call time).
  Status DeleteRows(int table, std::vector<int64_t> row_ids);

  /// Sets `column` of each (row, value) pair; recorded as remove-old-value +
  /// add-new-value in the column's sketch.
  Status UpdateValues(int table, int column,
                      const std::vector<std::pair<int64_t, int64_t>>& updates);

  // --- Sketch access ------------------------------------------------------

  TableDelta Snapshot(int table) const;
  TableAnchor anchor(int table) const;

  /// Installs `anchor` and resets the table's delta to empty. Waits out an
  /// in-flight Rebase on the same table.
  void SetAnchor(int table, TableAnchor anchor);

  /// Runs `reanalyze(delta, old_anchor, snapshot)` WITHOUT the table's
  /// ingest lock: the three arguments are captured atomically (the pinned
  /// storage snapshot contains exactly the data the delta describes), then
  /// writers keep streaming while the callback — typically an incremental
  /// merge or a full AnalyzeTable rescan of the snapshot — runs. On success
  /// the returned anchor is installed, the delta is reset, and every
  /// mutation that landed during the callback is replayed into the fresh
  /// delta against the new anchor. On error the old anchor and delta (which
  /// already includes the during-rebase mutations) are kept. At most one
  /// rebase per table runs at a time; a second caller waits.
  Status Rebase(int table,
                const std::function<StatusOr<TableAnchor>(
                    const TableDelta&, const TableAnchor&,
                    const balsa::Snapshot&)>& reanalyze);

  int num_tables() const { return static_cast<int>(tables_.size()); }

  // --- Observability ------------------------------------------------------

  /// Publication epochs that landed while a Rebase's unlocked re-ANALYZE
  /// callback ran (db epoch at rebase end minus the pinned snapshot's
  /// epoch) — how far the stream ran ahead of the statistics pass. Large
  /// values mean heavy replay work per rebase.
  const obs::Log2Histogram& rebase_epoch_lag() const {
    return rebase_epoch_lag_;
  }

  /// Attaches ingest-volume counters ("storage.changelog.rows_inserted",
  /// ".rows_deleted", ".values_updated", ".batches" — one per successful
  /// ingest call) and the rebase epoch-lag histogram. Registry is borrowed
  /// and must outlive the log; calling again replaces the attachments.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  /// Raw values recorded while a Rebase's callback runs unlocked. Folding
  /// commutes, so replay needs no batch boundaries — just every added and
  /// removed value per column plus the row counters.
  struct PendingRaw {
    int64_t rows_inserted = 0;
    int64_t rows_deleted = 0;
    int64_t rows_updated = 0;
    int64_t epochs = 0;
    std::vector<std::vector<int64_t>> added;    // per column
    std::vector<std::vector<int64_t>> removed;  // per column
  };

  struct TableState {
    mutable Mutex mu;
    CondVar rebase_cv;
    bool rebasing GUARDED_BY(mu) = false;
    TableAnchor anchor GUARDED_BY(mu);
    TableDelta delta GUARDED_BY(mu);
    PendingRaw pending GUARDED_BY(mu);
  };

  Status CheckTable(int table) const;
  /// Folds one value into the sketch (add = insert side, else delete side).
  static void Record(const ColumnAnchor& anchor, int64_t value, bool add,
                     ColumnDeltaSketch* sketch);
  /// Folds state->pending into state->delta against state->anchor (called
  /// with the table lock held, after a successful rebase installed the new
  /// anchor), then clears it.
  static void ReplayPending(TableState* state) REQUIRES(state->mu);

  Database* db_;
  std::vector<std::unique_ptr<TableState>> tables_;

  obs::Counter rows_inserted_;
  obs::Counter rows_deleted_;
  obs::Counter values_updated_;
  obs::Counter batches_;
  obs::Log2Histogram rebase_epoch_lag_;
  /// Registry attachments (empty until AttachMetrics). Last member.
  std::vector<obs::Registration> registrations_;
};

}  // namespace balsa
