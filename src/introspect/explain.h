// EXPLAIN / EXPLAIN ANALYZE: per-node plan introspection. ExplainPlan
// annotates every node with the estimator's cardinality; ExplainAnalyze
// additionally executes the plan with profiling on (Executor::
// ExecuteProfiled) and reports each node's *actual* cardinality, wall
// time, path taken (index vs. full scan, chunks walked, row-cap hits),
// and Q-error — the max(est/act, act/est) ratio that quantifies how far
// off the estimator was, per node. A learned
// optimizer's "disastrous plan" post-mortem starts here: the node whose
// Q-error explodes is the node the model mispriced.
//
// Both renderers are pure over their inputs: text for terminals, JSON
// (one nested object, children inline) for tooling. Actual row counts are
// exactly the Intermediate cardinalities Execute would produce — the
// profile observes the same execution, it never re-runs or re-derives
// (bench_explain_overhead asserts bitwise equality per node).
//
// This lives in its own layer (introspect, above exec + stats + serving)
// because it joins the executor's measurements with the estimator's
// predictions: exec cannot see stats (stats depends on exec), so neither
// library can host the comparison.
#pragma once

#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/exec/profile.h"
#include "src/plan/plan.h"
#include "src/plan/query_graph.h"
#include "src/stats/cardinality_estimator.h"
#include "src/util/status.h"

namespace balsa::introspect {

/// One plan node's annotations. Estimate-only fields are filled by
/// ExplainPlan; the actuals additionally by ExplainAnalyze.
struct ExplainNode {
  int node_idx = -1;
  bool is_join = false;
  /// Operator name ("HashJoin", "SeqScan", ...). For analyzed scans this
  /// reflects the path the executor actually took ("IndexScan" when the
  /// hash index served it), not the plan's nominal ScanOp.
  std::string op;
  /// Leaf: the scanned relation's alias. Join: empty.
  std::string label;
  int left = -1;
  int right = -1;

  /// Estimator's predicted output rows (-1 when no estimator was given).
  double est_rows = -1;

  /// Analyze-only (analyzed == false after plain ExplainPlan):
  bool analyzed = false;
  int64_t actual_rows = 0;
  /// max(est/act, act/est), both clamped to >= 1 row; 0 without an
  /// estimator. A capped node's actual is a lower bound, so its Q-error
  /// is too.
  double q_error = 0;
  double wall_micros = 0;
  bool capped = false;
  bool used_index = false;
  int64_t chunks_total = 0;
  int64_t build_rows = 0;
  int64_t probe_rows = 0;
};

/// The annotated plan tree, nodes indexed by plan arena position.
struct PlanExplain {
  std::string query_name;
  int root = -1;
  std::vector<ExplainNode> nodes;
  bool analyzed = false;
  /// Analyze-only: whole-plan wall time and summary over the nodes.
  double total_micros = 0;
  double max_q_error = 0;
  bool any_capped = false;

  const ExplainNode* node(int idx) const {
    if (idx < 0 || idx >= static_cast<int>(nodes.size())) return nullptr;
    return &nodes[static_cast<size_t>(idx)];
  }

  /// Indented tree, root first, one node per line:
  ///   HashJoin  est=512 act=301 q=1.70  2104.2us
  ///     SeqScan(mc)  est=4000 act=4000 q=1.00  [chunks 1]
  std::string ToText() const;
  /// One nested JSON object: {"query":...,"analyzed":...,"plan":{...,
  /// "children":[...]}} with per-node est/actual/q_error fields.
  std::string ToJson() const;
};

/// max(est/act, act/est) with both sides clamped to >= 1 row.
double QError(double est_rows, double actual_rows);

/// Annotates `plan` with estimates only — never touches data. `estimator`
/// may be null (est_rows stays -1).
PlanExplain ExplainPlan(const Query& query, const Plan& plan,
                        const CardinalityEstimatorInterface* estimator);

/// Executes `plan` through `executor.ExecuteProfiled` (its pinned snapshot
/// and options) and annotates every node with its actuals. `estimator` may
/// be null — actuals and timings still fill in, Q-errors stay 0.
StatusOr<PlanExplain> ExplainAnalyze(
    const Executor& executor, const Query& query, const Plan& plan,
    const CardinalityEstimatorInterface* estimator);

}  // namespace balsa::introspect
