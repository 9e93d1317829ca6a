// Per-plan-node execution measurements: what EXPLAIN ANALYZE reports and
// what the online-learning loop attributes executed-plan latency to.
//
// Profiles are opt-in: a non-null sink is the only switch. They are
// collected into a caller-owned ExecutionProfile by
// Executor::ExecuteProfiled, or per node by passing a NodeProfile sink to
// Scan/Join directly. Without a sink the executor takes no clocks and
// allocates nothing extra — the profiled and unprofiled paths produce
// bitwise-identical Intermediates either way (tests/introspect_test.cc
// pins the results).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace balsa {

/// Measurements of one plan node's execution. Scan-only and join-only
/// fields are zero for the other node kind.
struct NodeProfile {
  /// Plan arena index this node was executed as (-1 for a direct
  /// Scan/Join call outside a plan).
  int node_idx = -1;
  bool is_join = false;

  /// Output cardinality — the "actual rows" of EXPLAIN ANALYZE.
  int64_t rows_out = 0;
  /// Output truncated at ExecutorOptions::row_cap (the paper's
  /// "disastrous plan" signal).
  bool capped = false;
  /// Wall time of this node alone; for joins this excludes the inputs
  /// (they have their own profiles).
  double wall_micros = 0;

  // --- Scan path ---------------------------------------------------------
  /// Query relation index scanned.
  int relation = -1;
  /// Matches came from the snapshot's hash index instead of a full pass.
  bool used_index = false;
  /// Chunks of the base table the full scan walked (0 on the index path,
  /// which touches no chunks).
  int64_t chunks_total = 0;

  // --- Join path ---------------------------------------------------------
  /// Input cardinalities in plan order ("rows in").
  int64_t rows_in_left = 0;
  int64_t rows_in_right = 0;
  /// Hash-table side / probe side cardinalities (the executor builds on
  /// the smaller input, so build_rows = min(rows_in_*)).
  int64_t build_rows = 0;
  int64_t probe_rows = 0;
};

/// The profile tree of one executed plan, indexed by plan arena position
/// (nodes the plan does not contain keep node_idx == -1).
struct ExecutionProfile {
  std::vector<NodeProfile> nodes;
  /// Wall time of the whole Execute call.
  double total_micros = 0;

  /// The profile of plan node `idx`, or nullptr when out of range / not
  /// executed.
  const NodeProfile* node(int idx) const {
    if (idx < 0 || idx >= static_cast<int>(nodes.size())) return nullptr;
    return nodes[static_cast<size_t>(idx)].node_idx == idx
               ? &nodes[static_cast<size_t>(idx)]
               : nullptr;
  }

  /// True iff any node's output hit the row cap.
  bool AnyCapped() const {
    for (const NodeProfile& n : nodes) {
      if (n.node_idx >= 0 && n.capped) return true;
    }
    return false;
  }
};

}  // namespace balsa
