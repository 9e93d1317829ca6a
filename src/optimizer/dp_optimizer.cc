#include "src/optimizer/dp_optimizer.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace balsa {

namespace {

struct DpEntry {
  double cost = std::numeric_limits<double>::infinity();
  Plan plan;
  bool valid = false;
};

// The join operators `options` enables, in the order candidates are tried
// (on equal cost the first one wins).
std::vector<JoinOp> JoinOps(const DpOptimizerOptions& options) {
  std::vector<JoinOp> ops;
  if (options.enable_hash_join) ops.push_back(JoinOp::kHashJoin);
  if (options.enable_merge_join) ops.push_back(JoinOp::kMergeJoin);
  if (options.enable_index_nl) ops.push_back(JoinOp::kIndexNLJoin);
  if (options.enable_nl_join) ops.push_back(JoinOp::kNLJoin);
  return ops;
}

}  // namespace

double DpOptimizer::CandidateCost(const Query& query, TableSet left,
                                  TableSet right, JoinOp op, double left_cost,
                                  double right_cost, double left_rows,
                                  double right_rows, double out_rows,
                                  bool right_is_single_rel,
                                  bool* valid) const {
  *valid = true;
  OperatorCostInput in;
  in.is_join = true;
  in.join_op = op;
  in.left_rows = left_rows;
  in.right_rows = right_rows;
  in.out_rows = out_rows;
  if (op == JoinOp::kIndexNLJoin) {
    if (!right_is_single_rel ||
        !IndexNLValid(*schema_, query, left, right.First())) {
      *valid = false;
      return std::numeric_limits<double>::infinity();
    }
    in.index_available = true;
  }
  double node = cost_model_->NodeCost(query, in);
  bool skip_inner = op == JoinOp::kIndexNLJoin &&
                    !cost_model_->ChargeInnerScanUnderIndexNL();
  return left_cost + (skip_inner ? 0.0 : right_cost) + node;
}

Status DpOptimizer::RunDp(const Query& query, OptimizedPlan* best,
                          const EnumerationCallback* callback) const {
  const int n = query.num_relations();
  const CardinalityEstimatorInterface& est = cost_model_->estimator();

  // Cached estimated cardinalities per table set.
  std::unordered_map<uint64_t, double> rows_cache;
  auto rows_of = [&](TableSet s) {
    auto it = rows_cache.find(s.bits());
    if (it != rows_cache.end()) return it->second;
    double r = est.EstimateJoinRows(query, s);
    rows_cache[s.bits()] = r;
    return r;
  };

  std::unordered_map<uint64_t, DpEntry> dp;

  // Level 1: scans, both operators enumerated.
  for (int rel = 0; rel < n; ++rel) {
    TableSet s = TableSet::Single(rel);
    DpEntry entry;
    for (ScanOp op : {ScanOp::kSeqScan, ScanOp::kIndexScan}) {
      OperatorCostInput in;
      in.is_join = false;
      in.scan_op = op;
      in.out_rows = rows_of(s);
      in.base_rows = static_cast<double>(
          schema_->table(query.relations()[rel].table_idx).row_count);
      in.index_available = IndexScanEffective(*schema_, query, rel);
      double cost = cost_model_->NodeCost(query, in);
      Plan plan;
      plan.AddScan(rel, op);
      if (callback) (*callback)(query, s, plan, cost);
      if (cost < entry.cost) {
        entry.cost = cost;
        entry.plan = std::move(plan);
        entry.valid = true;
      }
    }
    dp[s.bits()] = std::move(entry);
  }

  // Enumerate masks by increasing population count.
  std::vector<uint64_t> masks;
  for (uint64_t m = 1; m < (uint64_t{1} << n); ++m) {
    if (__builtin_popcountll(m) >= 2) masks.push_back(m);
  }
  std::sort(masks.begin(), masks.end(), [](uint64_t a, uint64_t b) {
    int pa = __builtin_popcountll(a), pb = __builtin_popcountll(b);
    return pa != pb ? pa < pb : a < b;
  });

  const std::vector<JoinOp> ops = JoinOps(options_);

  for (uint64_t m : masks) {
    TableSet s(m);
    DpEntry entry;
    ForEachProperSubset(s, [&](TableSet left) {
      TableSet right = s.Minus(left);
      if (!options_.bushy && right.size() > 1) return;
      auto lit = dp.find(left.bits());
      auto rit = dp.find(right.bits());
      if (lit == dp.end() || !lit->second.valid) return;
      if (rit == dp.end() || !rit->second.valid) return;
      if (!query.CanJoin(left, right)) return;
      double lrows = rows_of(left), rrows = rows_of(right), orows = rows_of(s);
      for (JoinOp op : ops) {
        bool valid = false;
        double cost = CandidateCost(query, left, right, op, lit->second.cost,
                                    rit->second.cost, lrows, rrows, orows,
                                    right.size() == 1, &valid);
        if (!valid) continue;
        if (callback) {
          Plan composed = ComposeJoin(lit->second.plan, rit->second.plan, op);
          (*callback)(query, s, composed, cost);
          if (cost < entry.cost) {
            entry.cost = cost;
            entry.plan = std::move(composed);
            entry.valid = true;
          }
        } else if (cost < entry.cost) {
          entry.cost = cost;
          entry.plan = ComposeJoin(lit->second.plan, rit->second.plan, op);
          entry.valid = true;
        }
      }
    });
    if (entry.valid) dp[m] = std::move(entry);
  }

  auto it = dp.find(query.AllTables().bits());
  if (it == dp.end() || !it->second.valid) {
    return Status::InvalidArgument("query " + query.name() +
                                   " has a disconnected join graph");
  }
  best->plan = std::move(it->second.plan);
  best->cost = it->second.cost;
  return Status::OK();
}

StatusOr<OptimizedPlan> DpOptimizer::GreedyPlan(const Query& query) const {
  const int n = query.num_relations();
  const CardinalityEstimatorInterface& est = cost_model_->estimator();

  struct Piece {
    Plan plan;
    TableSet tables;
    double cost;
    double rows;
  };
  std::vector<Piece> forest;
  for (int rel = 0; rel < n; ++rel) {
    Piece p;
    TableSet s = TableSet::Single(rel);
    double rows = est.EstimateJoinRows(query, s);
    double best_cost = std::numeric_limits<double>::infinity();
    for (ScanOp op : {ScanOp::kSeqScan, ScanOp::kIndexScan}) {
      OperatorCostInput in;
      in.is_join = false;
      in.scan_op = op;
      in.out_rows = rows;
      in.base_rows = static_cast<double>(
          schema_->table(query.relations()[rel].table_idx).row_count);
      in.index_available = IndexScanEffective(*schema_, query, rel);
      double cost = cost_model_->NodeCost(query, in);
      if (cost < best_cost) {
        best_cost = cost;
        Plan plan;
        plan.AddScan(rel, op);
        p.plan = std::move(plan);
      }
    }
    p.tables = s;
    p.cost = best_cost;
    p.rows = rows;
    forest.push_back(std::move(p));
  }

  const std::vector<JoinOp> ops = JoinOps(options_);

  while (forest.size() > 1) {
    double best_cost = std::numeric_limits<double>::infinity();
    int bi = -1, bj = -1;
    JoinOp bop = JoinOp::kHashJoin;
    // Left-deep mode must grow a single chain: creating two multi-relation
    // pieces would leave them unmergeable (neither can be the inner side).
    int forced_outer = -1;
    if (!options_.bushy) {
      for (size_t i = 0; i < forest.size(); ++i) {
        if (forest[i].tables.size() > 1) forced_outer = static_cast<int>(i);
      }
    }
    for (size_t i = 0; i < forest.size(); ++i) {
      if (forced_outer >= 0 && static_cast<int>(i) != forced_outer) continue;
      for (size_t j = 0; j < forest.size(); ++j) {
        if (i == j) continue;
        if (!options_.bushy && forest[j].tables.size() > 1) continue;
        if (!query.CanJoin(forest[i].tables, forest[j].tables)) continue;
        TableSet merged = forest[i].tables.Union(forest[j].tables);
        double orows = est.EstimateJoinRows(query, merged);
        for (JoinOp op : ops) {
          bool valid = false;
          double cost = CandidateCost(
              query, forest[i].tables, forest[j].tables, op, forest[i].cost,
              forest[j].cost, forest[i].rows, forest[j].rows, orows,
              forest[j].tables.size() == 1, &valid);
          if (!valid) continue;
          if (cost < best_cost) {
            best_cost = cost;
            bi = static_cast<int>(i);
            bj = static_cast<int>(j);
            bop = op;
          }
        }
      }
    }
    if (bi < 0) {
      return Status::InvalidArgument("query " + query.name() +
                                     " has a disconnected join graph");
    }
    Piece merged;
    merged.plan = ComposeJoin(forest[bi].plan, forest[bj].plan, bop);
    merged.tables = forest[bi].tables.Union(forest[bj].tables);
    merged.cost = best_cost;
    merged.rows = est.EstimateJoinRows(query, merged.tables);
    // Remove the higher index first to keep the other one valid.
    size_t hi = std::max(bi, bj), lo = std::min(bi, bj);
    forest.erase(forest.begin() + hi);
    forest.erase(forest.begin() + lo);
    forest.push_back(std::move(merged));
  }
  OptimizedPlan out;
  out.plan = std::move(forest[0].plan);
  out.cost = forest[0].cost;
  return out;
}

StatusOr<OptimizedPlan> DpOptimizer::Optimize(const Query& query) const {
  if (query.num_relations() == 0) {
    return Status::InvalidArgument("empty query");
  }
  if (query.num_relations() == 1) {
    OptimizedPlan out;
    OperatorCostInput in;
    in.is_join = false;
    in.scan_op = ScanOp::kSeqScan;
    in.out_rows = cost_model_->estimator().EstimateScanRows(query, 0);
    in.base_rows = static_cast<double>(
        schema_->table(query.relations()[0].table_idx).row_count);
    out.plan.AddScan(0, ScanOp::kSeqScan);
    out.cost = cost_model_->NodeCost(query, in);
    return out;
  }
  if (query.num_relations() > options_.max_exact_relations) {
    return GreedyPlan(query);
  }
  OptimizedPlan best;
  BALSA_RETURN_IF_ERROR(RunDp(query, &best, nullptr));
  return best;
}

Status DpOptimizer::EnumerateAll(const Query& query,
                                 EnumerationCallback callback) const {
  if (query.num_relations() > options_.max_exact_relations) {
    return Status::InvalidArgument(
        "EnumerateAll: query " + query.name() + " joins too many tables (" +
        std::to_string(query.num_relations()) + "); skip per the n-cutoff");
  }
  OptimizedPlan best;
  return RunDp(query, &best, &callback);
}

}  // namespace balsa
