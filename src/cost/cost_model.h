// Cost models used as "simulators" for bootstrapping (§3) and by the
// classical expert optimizer baseline.
//
//  - CoutCostModel: the paper's minimal, logical-only C_out model — the sum
//    of estimated result sizes of all operators. Knows nothing about
//    physical operators or the engine.
//  - CmmCostModel: the in-memory C_mm variant of Leis et al. (scan-weighted),
//    an "alternative cost model" per §3.3.
//  - EngineCostModel: an expert cost model that mirrors a target engine's
//    operator latency formulas, fed by *estimated* cardinalities. This is
//    the "Expert Simulator" ablation arm in Figure 10.
#pragma once

#include <memory>

#include "src/plan/plan.h"
#include "src/stats/cardinality_estimator.h"

namespace balsa {

/// Per-operator latency coefficients of an execution engine, in virtual
/// milliseconds per row (or per row-pair). Shared by the engine's latency
/// model (true cards + noise) and the expert cost model (estimated cards).
struct EngineCostParams {
  // Scans.
  double seq_scan_per_row = 0.0008;
  double index_scan_per_row = 0.004;   // per *output* row
  double index_scan_overhead = 0.05;
  // Hash join.
  double hash_build_per_row = 0.004;
  double hash_probe_per_row = 0.0015;
  // Merge join (sort both sides unless pre-sorted; we always charge sorts).
  double sort_per_row_log = 0.0011;
  double merge_per_row = 0.0009;
  // Nested loops.
  double index_nl_probe_per_row = 0.006;  // per outer row
  double nl_per_row_pair = 0.00002;       // per (outer x inner) pair
  // Materialization of join output.
  double output_per_row = 0.0008;
  // Fixed per-query overhead (startup, plan dispatch).
  double query_overhead_ms = 2.0;
};

/// Inputs to a single operator's cost/latency formula.
struct OperatorCostInput {
  bool is_join = false;
  JoinOp join_op = JoinOp::kHashJoin;
  ScanOp scan_op = ScanOp::kSeqScan;
  double out_rows = 0;         // (estimated or true) output rows of the node
  double left_rows = 0;        // joins: left child output rows
  double right_rows = 0;       // joins: right child output rows
  double base_rows = 0;        // scans: unfiltered base table rows
  bool index_available = false;  // scans: usable index for the predicate /
                                 // index-NL: inner has an index on the key
};

/// The engine-family operator formula (used with true cards by engines and
/// with estimated cards by EngineCostModel).
double OperatorCost(const EngineCostParams& params,
                    const OperatorCostInput& in);

/// True if relation `rel` can be the inner of an index nested-loop join
/// against `outer` (some equi-join key on an indexed — PK or FK — column).
bool IndexNLValid(const Schema& schema, const Query& query, TableSet outer,
                  int rel);

/// The relations an outer side needs one of for `rel` to be a valid
/// index nested-loop inner: IndexNLValid(schema, query, outer, rel) ==
/// outer.Intersects(IndexNLPartners(schema, query, rel)) for every outer.
TableSet IndexNLPartners(const Schema& schema, const Query& query, int rel);

/// True if relation `rel` has an equality/IN filter on an indexed column,
/// making an index scan effective.
bool IndexScanEffective(const Schema& schema, const Query& query, int rel);

/// Interface: total cost of a plan subtree under estimated cardinalities.
class CostModelInterface {
 public:
  virtual ~CostModelInterface() = default;

  /// Cost of the subtree of `plan` rooted at `node_idx` (-1 = root).
  virtual double PlanCost(const Query& query, const Plan& plan,
                          int node_idx = -1) const = 0;

  /// Incremental cost of a single operator (no children), enabling O(1)
  /// candidate evaluation in DP. Every model in this library is additive
  /// per node, so PlanCost == sum of NodeCost (+ per-query overhead).
  virtual double NodeCost(const Query& query,
                          const OperatorCostInput& in) const = 0;

  /// Whether the inner leaf scan below a valid index nested-loop join is
  /// charged. Physical models return false (the probes are priced at the
  /// join); logical models (C_out, C_mm) charge every node's output size.
  virtual bool ChargeInnerScanUnderIndexNL() const { return true; }

  virtual const CardinalityEstimatorInterface& estimator() const = 0;
};

/// C_out: sum of estimated result sizes over all operators (§3.1).
class CoutCostModel : public CostModelInterface {
 public:
  explicit CoutCostModel(
      std::shared_ptr<CardinalityEstimatorInterface> estimator,
      const Schema* schema)
      : estimator_(std::move(estimator)), schema_(schema) {}

  double PlanCost(const Query& query, const Plan& plan,
                  int node_idx = -1) const override;
  double NodeCost(const Query& query,
                  const OperatorCostInput& in) const override;
  const CardinalityEstimatorInterface& estimator() const override {
    return *estimator_;
  }

 private:
  std::shared_ptr<CardinalityEstimatorInterface> estimator_;
  const Schema* schema_;
};

/// C_mm: like C_out but charges scans at a discounted weight and joins at
/// full weight (an in-memory-tuned logical model).
class CmmCostModel : public CostModelInterface {
 public:
  CmmCostModel(std::shared_ptr<CardinalityEstimatorInterface> estimator,
               const Schema* schema, double scan_weight = 0.2)
      : estimator_(std::move(estimator)),
        schema_(schema),
        scan_weight_(scan_weight) {}

  double PlanCost(const Query& query, const Plan& plan,
                  int node_idx = -1) const override;
  double NodeCost(const Query& query,
                  const OperatorCostInput& in) const override;
  const CardinalityEstimatorInterface& estimator() const override {
    return *estimator_;
  }

 private:
  std::shared_ptr<CardinalityEstimatorInterface> estimator_;
  const Schema* schema_;
  double scan_weight_;
};

/// Expert cost model: the engine's own operator formulas on estimated cards.
class EngineCostModel : public CostModelInterface {
 public:
  EngineCostModel(std::shared_ptr<CardinalityEstimatorInterface> estimator,
                  const Schema* schema, EngineCostParams params)
      : estimator_(std::move(estimator)),
        schema_(schema),
        params_(params) {}

  double PlanCost(const Query& query, const Plan& plan,
                  int node_idx = -1) const override;
  double NodeCost(const Query& query,
                  const OperatorCostInput& in) const override;
  bool ChargeInnerScanUnderIndexNL() const override { return false; }
  const CardinalityEstimatorInterface& estimator() const override {
    return *estimator_;
  }
  const EngineCostParams& params() const { return params_; }

 private:
  std::shared_ptr<CardinalityEstimatorInterface> estimator_;
  const Schema* schema_;
  EngineCostParams params_;
};

}  // namespace balsa
