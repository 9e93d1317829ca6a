// Featurization of (query, plan) pairs for the value network (§7):
//  - A query is a vector [schema table -> estimated selectivity]; slots of
//    absent tables hold zero. (Simpler than Neo's and DQ's encodings, as in
//    the paper.) When a scope restricts the query to a subset of its
//    relations, only those slots are filled.
//  - A plan is a Neo-style tree: each node carries a one-hot physical
//    operator encoding plus an indicator of the base tables it covers.
#pragma once

#include "src/nn/nn.h"
#include "src/plan/plan.h"
#include "src/plan/query_graph.h"
#include "src/stats/cardinality_estimator.h"

namespace balsa {

class Featurizer {
 public:
  Featurizer(const Schema* schema,
             const CardinalityEstimatorInterface* estimator)
      : schema_(schema), estimator_(estimator) {}

  /// Dimension of the query feature vector (= number of schema tables).
  int query_dim() const { return schema_->num_tables(); }

  /// Dimension of a plan-tree node's feature vector.
  int node_dim() const {
    return kNumJoinOps + kNumScanOps + schema_->num_tables();
  }

  /// Query features for the full query, or for the sub-query restricted to
  /// `scope` relations (used by simulation data collection, §3.2).
  nn::Vec QueryFeatures(const Query& query) const {
    return QueryFeatures(query, query.AllTables());
  }
  nn::Vec QueryFeatures(const Query& query, TableSet scope) const;

  /// Feature vector of one plan node: its operator one-hot plus the schema
  /// tables it covers, written over the node_dim() floats at `out`.
  void NodeFeatures(const Query& query, const PlanNode& node,
                    float* out) const;
  nn::Vec NodeFeatures(const Query& query, const PlanNode& node) const;

  /// Tree encoding of the subtree of `plan` rooted at `node_idx` (-1=root).
  nn::TreeSample PlanFeatures(const Query& query, const Plan& plan,
                              int node_idx = -1) const;

  /// PlanFeatures(query, plan, i) for every arena node i, featurizing each
  /// node once: a join's sample is its own node, then its left child's
  /// sample, then its right child's, which is the preorder walk.
  std::vector<nn::TreeSample> SubtreeFeatures(const Query& query,
                                              const Plan& plan) const;

  const Schema& schema() const { return *schema_; }

 private:
  const Schema* schema_;
  const CardinalityEstimatorInterface* estimator_;
};

}  // namespace balsa
