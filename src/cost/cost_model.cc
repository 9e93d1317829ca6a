#include "src/cost/cost_model.h"

#include <algorithm>
#include <cmath>

namespace balsa {

namespace {

bool IsIndexedColumn(const Schema& schema, const Query& query,
                     const ColumnRef& col) {
  const TableDef& table = schema.table(query.relations()[col.relation].table_idx);
  ColumnKind kind = table.columns[col.column].kind;
  return kind == ColumnKind::kPrimaryKey || kind == ColumnKind::kForeignKey;
}

double SafeLog2(double x) { return std::log2(std::max(2.0, x)); }

}  // namespace

// Both walk the query's predicates in place, as the executor's scans and
// joins and the cardinality estimator do: beam search asks them per
// frontier pair, and Query::JoinsBetween and FiltersOn return copies.
bool IndexNLValid(const Schema& schema, const Query& query, TableSet outer,
                  int rel) {
  for (const JoinPredicate& j : query.joins()) {
    // The inner-side column: JoinsBetween(outer, {rel})'s j.right.
    const ColumnRef* inner = nullptr;
    if (outer.Contains(j.left.relation) && j.right.relation == rel) {
      inner = &j.right;
    } else if (j.left.relation == rel && outer.Contains(j.right.relation)) {
      inner = &j.left;
    }
    if (inner != nullptr && IsIndexedColumn(schema, query, *inner)) {
      return true;
    }
  }
  return false;
}

TableSet IndexNLPartners(const Schema& schema, const Query& query, int rel) {
  // IndexNLValid's two cases, in its order: a predicate whose right side
  // is on `rel` decides on that side alone, even when both are.
  TableSet partners;
  for (const JoinPredicate& j : query.joins()) {
    if (j.right.relation == rel) {
      if (IsIndexedColumn(schema, query, j.right)) {
        partners = partners.With(j.left.relation);
      }
    } else if (j.left.relation == rel &&
               IsIndexedColumn(schema, query, j.left)) {
      partners = partners.With(j.right.relation);
    }
  }
  return partners;
}

bool IndexScanEffective(const Schema& schema, const Query& query, int rel) {
  for (const FilterPredicate& f : query.filters()) {
    if (f.col.relation == rel &&
        (f.op == PredOp::kEq || f.op == PredOp::kIn) &&
        IsIndexedColumn(schema, query, f.col)) {
      return true;
    }
  }
  return false;
}

double OperatorCost(const EngineCostParams& p, const OperatorCostInput& in) {
  if (!in.is_join) {
    switch (in.scan_op) {
      case ScanOp::kSeqScan:
        return p.seq_scan_per_row * in.base_rows;
      case ScanOp::kIndexScan:
        if (in.index_available) {
          return p.index_scan_overhead + p.index_scan_per_row * in.out_rows;
        }
        // Index scan without a usable predicate degrades to a full index
        // sweep: strictly worse than a sequential scan.
        return p.index_scan_overhead +
               1.5 * p.seq_scan_per_row * in.base_rows +
               p.index_scan_per_row * in.out_rows;
    }
  }
  switch (in.join_op) {
    case JoinOp::kHashJoin:
      return p.hash_build_per_row * in.left_rows +
             p.hash_probe_per_row * in.right_rows +
             p.output_per_row * in.out_rows;
    case JoinOp::kMergeJoin:
      return p.sort_per_row_log *
                 (in.left_rows * SafeLog2(in.left_rows) +
                  in.right_rows * SafeLog2(in.right_rows)) +
             p.merge_per_row * (in.left_rows + in.right_rows) +
             p.output_per_row * in.out_rows;
    case JoinOp::kIndexNLJoin:
      if (in.index_available) {
        return p.index_nl_probe_per_row * in.left_rows +
               p.output_per_row * in.out_rows;
      }
      // No index on the inner: behaves like a naive nested loop.
      return p.nl_per_row_pair * in.left_rows * in.right_rows +
             p.output_per_row * in.out_rows;
    case JoinOp::kNLJoin:
      return p.nl_per_row_pair * in.left_rows * in.right_rows +
             p.output_per_row * in.out_rows;
  }
  return 0;
}

namespace {

// Shared recursive walk: calls `node_cost(input)` per node with estimated
// cardinalities and accumulates.
template <typename Fn>
double WalkCost(const Schema& schema,
                const CardinalityEstimatorInterface& est, const Query& query,
                const Plan& plan, int idx, bool charge_inner_scan,
                Fn&& node_cost) {
  const PlanNode& n = plan.node(idx);
  OperatorCostInput in;
  in.out_rows = est.EstimateJoinRows(query, n.tables);
  if (!n.is_join) {
    in.is_join = false;
    in.scan_op = n.scan_op;
    in.base_rows = static_cast<double>(
        schema.table(query.relations()[n.relation].table_idx).row_count);
    in.index_available = IndexScanEffective(schema, query, n.relation);
    return node_cost(in);
  }
  in.is_join = true;
  in.join_op = n.join_op;
  in.left_rows = est.EstimateJoinRows(query, plan.node(n.left).tables);
  in.right_rows = est.EstimateJoinRows(query, plan.node(n.right).tables);
  if (n.join_op == JoinOp::kIndexNLJoin && !plan.node(n.right).is_join) {
    in.index_available = IndexNLValid(schema, query, plan.node(n.left).tables,
                                      plan.node(n.right).relation);
  }
  double cost = node_cost(in);
  cost += WalkCost(schema, est, query, plan, n.left, charge_inner_scan,
                   node_cost);
  bool skip_inner = n.join_op == JoinOp::kIndexNLJoin && in.index_available &&
                    !charge_inner_scan;
  if (!skip_inner) {
    cost += WalkCost(schema, est, query, plan, n.right, charge_inner_scan,
                     node_cost);
  }
  return cost;
}

}  // namespace

double CoutCostModel::NodeCost(const Query& /*query*/,
                               const OperatorCostInput& in) const {
  // C_out ignores physical operators entirely: every node contributes its
  // estimated output size.
  return in.out_rows;
}

double CoutCostModel::PlanCost(const Query& query, const Plan& plan,
                               int node_idx) const {
  if (node_idx < 0) node_idx = plan.root();
  return WalkCost(*schema_, *estimator_, query, plan, node_idx,
                  ChargeInnerScanUnderIndexNL(),
                  [&](const OperatorCostInput& in) {
                    return NodeCost(query, in);
                  });
}

double CmmCostModel::NodeCost(const Query& /*query*/,
                              const OperatorCostInput& in) const {
  return in.is_join ? in.out_rows : scan_weight_ * in.out_rows;
}

double CmmCostModel::PlanCost(const Query& query, const Plan& plan,
                              int node_idx) const {
  if (node_idx < 0) node_idx = plan.root();
  return WalkCost(*schema_, *estimator_, query, plan, node_idx,
                  ChargeInnerScanUnderIndexNL(),
                  [&](const OperatorCostInput& in) {
                    return NodeCost(query, in);
                  });
}

double EngineCostModel::NodeCost(const Query& /*query*/,
                                 const OperatorCostInput& in) const {
  return OperatorCost(params_, in);
}

double EngineCostModel::PlanCost(const Query& query, const Plan& plan,
                                 int node_idx) const {
  if (node_idx < 0) node_idx = plan.root();
  return params_.query_overhead_ms +
         WalkCost(*schema_, *estimator_, query, plan, node_idx,
                  ChargeInnerScanUnderIndexNL(),
                  [&](const OperatorCostInput& in) {
                    return NodeCost(query, in);
                  });
}

}  // namespace balsa
