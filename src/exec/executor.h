// A real in-memory executor over the chunked column store. It evaluates
// filters and equi-joins to produce exact intermediate results; the
// cardinality oracle and the engine latency models are grounded in the row
// counts it measures.
//
// Every Executor reads through a pinned storage Snapshot: results are
// computed against one immutable publication epoch, so scans and joins are
// safe — and bitwise reproducible — while change-stream writers ingest
// concurrently. A full scan runs the filter pipeline chunk-at-a-time with
// tight branch-free inner loops over each chunk's raw values and appends
// matches in row order until the row cap. Equality-filtered scans are
// served from the snapshot's per-version hash index (built lazily, retired
// with the version) and produce exactly the sequence a full scan would.
//
// Intermediate relations are materialized as row-id tuples (one row id per
// participating base relation), so no data copying occurs beyond ids.
#pragma once

#include <cstdint>
#include <vector>

#include "src/exec/profile.h"
#include "src/plan/plan.h"
#include "src/plan/query_graph.h"
#include "src/storage/column_store.h"
#include "src/util/status.h"

namespace balsa {

/// An intermediate result: for each tuple, the contributing row id of every
/// base relation in `rels`. Column-major: tuples[i] is the row-id column for
/// rels[i].
struct Intermediate {
  std::vector<int> rels;                       // query relation indices
  std::vector<std::vector<uint32_t>> tuples;   // one column per rel
  bool capped = false;                         // result truncated at row cap

  int64_t NumRows() const {
    return tuples.empty() ? 0 : static_cast<int64_t>(tuples[0].size());
  }
  int RelSlot(int rel) const {
    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i] == rel) return static_cast<int>(i);
    }
    return -1;
  }
};

struct ExecutorOptions {
  /// Intermediates larger than this are truncated and flagged `capped`.
  /// Plans that hit the cap are "disastrous" in the paper's sense.
  int64_t row_cap = 4'000'000;
  /// Serve equality-filtered scans from the snapshot's hash index instead
  /// of a full pass. Results are identical either way (the index returns
  /// ascending row ids); off only for testing the scan path itself.
  bool use_index_for_eq = true;
};

/// Evaluates scans and joins of a query against a pinned snapshot. All
/// physical join operators produce identical results; the executor
/// implements them with hash joins (the oracle cares about cardinality, not
/// timing).
class Executor {
 public:
  explicit Executor(Snapshot snapshot, ExecutorOptions options = {})
      : snapshot_(std::move(snapshot)), options_(options) {}

  /// Convenience: pins the database's current snapshot at construction.
  explicit Executor(const Database* db, ExecutorOptions options = {})
      : Executor(db->GetSnapshot(), options) {}

  /// The snapshot all reads go through (its epoch tags derived results).
  const Snapshot& snapshot() const { return snapshot_; }

  /// Scans relation `rel` of `query`, applying all its filters
  /// chunk-at-a-time over the table's chunks. A non-null `prof` receives
  /// the scan's measurements (src/exec/profile.h); a null one costs
  /// nothing: no clock reads, no extra allocations.
  StatusOr<Intermediate> Scan(const Query& query, int rel,
                              NodeProfile* prof = nullptr) const;

  /// Equi-joins two intermediates on all join predicates crossing them.
  /// Fails if no predicate connects them (no cross products in SPJ plans).
  /// A non-null `prof` receives the join's measurements.
  StatusOr<Intermediate> Join(const Query& query, const Intermediate& left,
                              const Intermediate& right,
                              NodeProfile* prof = nullptr) const;

  /// Executes a whole plan subtree, returning the final intermediate.
  StatusOr<Intermediate> Execute(const Query& query, const Plan& plan,
                                 int node_idx = -1) const;

  /// Execute with a per-node profile tree: `profile` is resized to the
  /// plan's arena and each executed node's measurements land at its arena
  /// index. Results are bitwise identical to Execute — profiling only
  /// observes. A null `profile` makes this Execute.
  StatusOr<Intermediate> ExecuteProfiled(const Query& query, const Plan& plan,
                                         ExecutionProfile* profile) const;

  /// True if `row` of the relation's base table passes filter `f`.
  bool EvalFilter(const Query& query, const FilterPredicate& f,
                  uint32_t row) const;

 private:
  StatusOr<Intermediate> ExecuteNode(const Query& query, const Plan& plan,
                                     int node_idx,
                                     ExecutionProfile* profile) const;
  int64_t ColumnValue(const Query& query, int rel, int col,
                      uint32_t row) const;

  Snapshot snapshot_;
  ExecutorOptions options_;
};

}  // namespace balsa
