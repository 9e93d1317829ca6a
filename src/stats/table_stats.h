// ANALYZE-style statistics: per-column equi-depth histograms, most-common
// values, distinct counts, and null fractions — the inputs to the
// PostgreSQL-style cardinality estimator.
#pragma once

#include <cstdint>
#include <vector>

#include "src/storage/column_store.h"
#include "src/util/hll.h"
#include "src/util/status.h"

namespace balsa {

struct ColumnStats {
  int64_t min_value = 0;
  int64_t max_value = 0;
  int64_t num_distinct = 0;
  double null_fraction = 0.0;

  /// HyperLogLog over the analyzed (non-null) values. num_distinct stays
  /// the exact scan count; the sketch exists so the incremental re-ANALYZE
  /// (src/stats/incremental_analyze.h) can union it with an insert stream's
  /// sketch and estimate the NDV of the combined column without rescanning.
  Hll distinct_sketch;

  /// Most common values and their frequencies (fractions of non-null rows).
  std::vector<int64_t> mcv_values;
  std::vector<double> mcv_freqs;

  /// Equi-depth histogram bucket boundaries over non-MCV values
  /// (boundaries.size() == num_buckets + 1). Empty for all-MCV columns.
  std::vector<int64_t> histogram_bounds;

  /// Fraction of non-null rows not covered by the MCV list.
  double non_mcv_fraction = 1.0;
};

struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;
  /// Generation of the ANALYZE run that produced these statistics. Consumers
  /// that cache anything derived from stats (plans, estimates) key those
  /// caches by this version so a re-ANALYZE lazily invalidates them; the
  /// CardOracle carries the matching runtime counter (generation()).
  int64_t stats_version = 0;
};

// ANALYZE always scans every row (no sampling): sampling is what makes real
// ANALYZE stats inaccurate, and here skew/correlation supply the estimation
// error instead, as in the paper. `stats_version` is stamped into every
// produced TableStats::stats_version; callers that re-ANALYZE after data
// changes pass a larger value (e.g. the oracle's bumped generation) so stale
// derived caches can be detected.

/// Computes statistics for every table, read through ONE pinned snapshot so
/// the produced stats describe a single publication epoch even while
/// change-stream writers ingest.
StatusOr<std::vector<TableStats>> Analyze(const Database& db,
                                          int64_t stats_version = 0);

/// Computes statistics for one table of a pinned snapshot — the full-rescan
/// fallback of the adaptive re-ANALYZE pipeline (src/adaptive), which runs
/// it WITHOUT the ingest lock: the snapshot is immutable, so the rescan
/// never blocks writers. The incremental alternative merges change-stream
/// sketches instead (src/stats/incremental_analyze.h).
StatusOr<TableStats> AnalyzeTable(const Snapshot& snapshot, int table_idx,
                                  int64_t stats_version = 0);

/// Convenience: pins the database's current snapshot first.
StatusOr<TableStats> AnalyzeTable(const Database& db, int table_idx,
                                  int64_t stats_version = 0);

}  // namespace balsa
