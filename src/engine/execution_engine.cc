#include "src/engine/execution_engine.h"

#include <algorithm>
#include <cmath>

namespace balsa {

namespace {

/// Lognormal sigma of per-execution latency noise.
constexpr double kNoiseSigma = 0.08;

}  // namespace

EngineOptions PostgresLikeEngineOptions() {
  EngineOptions opts;
  opts.name = "PostgresLike";
  // Defaults of EngineCostParams are the PostgresLike calibration: balanced
  // operators, efficient indexed nested loops, full bushy hint support.
  opts.accepts_bushy = true;
  opts.noise_seed = 1234;
  return opts;
}

EngineOptions CommDbLikeEngineOptions() {
  EngineOptions opts;
  opts.name = "CommDbLike";
  // A commercial engine profile: very fast hash joins, slower random index
  // probes, pricier loop joins — and a hint interface that cannot express
  // bushy shapes (the paper estimates this shrinks the search space ~1000x).
  opts.params.seq_scan_per_row = 0.0006;
  opts.params.hash_build_per_row = 0.0022;
  opts.params.hash_probe_per_row = 0.0008;
  opts.params.sort_per_row_log = 0.0009;
  opts.params.merge_per_row = 0.0008;
  opts.params.index_nl_probe_per_row = 0.009;
  opts.params.index_scan_per_row = 0.006;
  opts.params.nl_per_row_pair = 0.00004;
  opts.params.output_per_row = 0.0006;
  opts.params.query_overhead_ms = 3.0;
  opts.accepts_bushy = false;
  opts.noise_seed = 4321;
  return opts;
}

StatusOr<double> ExecutionEngine::ComputeLatency(const Query& query,
                                                 const Plan& plan,
                                                 bool* disastrous) {
  BALSA_ASSIGN_OR_RETURN(std::vector<TrueCard> cards,
                         oracle_->PlanCardinalities(query, plan));
  *disastrous = false;
  double total = options_.params.query_overhead_ms;

  // Identify inner leaves of valid index-NL joins: their probe cost is
  // priced at the join operator, not as a scan.
  std::vector<bool> skip(plan.num_nodes(), false);
  for (int i = 0; i < plan.num_nodes(); ++i) {
    const PlanNode& n = plan.node(i);
    if (n.is_join && n.join_op == JoinOp::kIndexNLJoin &&
        !plan.node(n.right).is_join &&
        IndexNLValid(db_->schema(), query, plan.node(n.left).tables,
                     plan.node(n.right).relation)) {
      skip[n.right] = true;
    }
  }

  for (int i = 0; i < plan.num_nodes(); ++i) {
    if (skip[i]) continue;
    const PlanNode& n = plan.node(i);
    if (cards[i].capped) *disastrous = true;
    OperatorCostInput in;
    in.out_rows = cards[i].rows;
    if (!n.is_join) {
      in.is_join = false;
      in.scan_op = n.scan_op;
      in.base_rows = static_cast<double>(
          db_->row_count(query.relations()[n.relation].table_idx));
      in.index_available = IndexScanEffective(db_->schema(), query,
                                              n.relation);
    } else {
      in.is_join = true;
      in.join_op = n.join_op;
      in.left_rows = cards[n.left].rows;
      in.right_rows = cards[n.right].rows;
      if (n.join_op == JoinOp::kIndexNLJoin && !plan.node(n.right).is_join) {
        in.index_available =
            IndexNLValid(db_->schema(), query, plan.node(n.left).tables,
                         plan.node(n.right).relation);
      }
    }
    total += OperatorCost(options_.params, in);
  }
  if (*disastrous) {
    total = std::max(total, kDisasterMinLatencyMs);
  }
  return total;
}

StatusOr<double> ExecutionEngine::NoiselessLatency(const Query& query,
                                                   const Plan& plan) {
  bool disastrous = false;
  return ComputeLatency(query, plan, &disastrous);
}

StatusOr<ExecutionResult> ExecutionEngine::Execute(const Query& query,
                                                   const Plan& plan,
                                                   double timeout_ms) {
  if (!AcceptsPlan(plan)) {
    return Status::InvalidArgument("engine " + options_.name +
                                   " cannot execute bushy plan for query " +
                                   query.name());
  }
  uint64_t key = (static_cast<uint64_t>(query.id() + 1) *
                  0x9E3779B97F4A7C15ULL) ^
                 plan.Fingerprint();
  auto it = plan_cache_.find(key);
  double latency;
  bool from_cache = it != plan_cache_.end();
  if (from_cache) {
    latency = it->second;
  } else {
    bool disastrous = false;
    BALSA_ASSIGN_OR_RETURN(latency, ComputeLatency(query, plan, &disastrous));
    // Per-execution measurement noise.
    latency *= noise_rng_.LogNormal(0.0, kNoiseSigma);
    num_real_executions_++;
    plan_cache_[key] = latency;
  }
  ExecutionResult result;
  result.from_cache = from_cache;
  if (timeout_ms > 0 && latency > timeout_ms) {
    result.latency_ms = timeout_ms;
    result.timed_out = true;
  } else {
    result.latency_ms = latency;
    result.timed_out = false;
  }
  return result;
}

double ExecutionPoolModel::Makespan(
    const std::vector<double>& latencies_ms) const {
  std::vector<double> load(std::max(1, num_workers_), 0.0);
  for (double l : latencies_ms) {
    auto it = std::min_element(load.begin(), load.end());
    *it += l;
  }
  return *std::max_element(load.begin(), load.end());
}

}  // namespace balsa
