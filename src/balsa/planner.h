// Best-first beam search over partial-plan sets, guided by the learned value
// network (§4.2). A search state is a set of partial plans for the query;
// actions join two eligible plans with a physical join operator (assigning
// scan operators when a side is a base table). States are scored by
// V(state) = max over the state's partial plans of V(query, plan); the beam
// keeps the b best states and the search runs until k complete plans are
// found, returned in ascending predicted latency.
#pragma once

#include <cstdint>
#include <vector>

#include "src/model/featurizer.h"
#include "src/model/value_network.h"
#include "src/plan/plan.h"
#include "src/runtime/inference_service.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace balsa {

struct PlannerOptions {
  int beam_size = 20;  // b
  int top_k = 10;      // k
  /// Allow bushy shapes. Engines whose hint interface is left-deep-only
  /// (CommDB, §8.2) plan with bushy = false.
  bool bushy = true;
  bool enable_hash_join = true;
  bool enable_merge_join = true;
  bool enable_nl_join = true;
  bool enable_index_nl_join = true;
  bool enable_index_scan = true;
  /// epsilon-greedy beam search (§8.3.3 ablation): with this probability
  /// per expansion, the beam is collapsed to one random state.
  double epsilon_collapse = 0.0;
  /// Safety bound on state expansions per query.
  int max_expansions = 20000;
  /// Score each expansion's frontier with one batched, incremental network
  /// call over the new join roots only (ValueNetwork::ScoreRoots on the
  /// children's cached terms, optionally via an InferenceService) instead
  /// of one full Predict per plan. Scores — and therefore the plans
  /// found — are identical either way; batching only changes throughput.
  bool batch_scoring = true;
};

class BeamSearchPlanner {
 public:
  BeamSearchPlanner(const Schema* schema, const Featurizer* featurizer,
                    const ValueNetwork* network, PlannerOptions options)
      : schema_(schema),
        featurizer_(featurizer),
        network_(network),
        options_(options) {}

  struct ScoredPlan {
    Plan plan;
    double predicted_ms = 0;
  };

  struct PlanningResult {
    /// Up to k distinct complete plans, ascending by predicted latency.
    std::vector<ScoredPlan> plans;
    double planning_time_ms = 0;  // real wall clock
    /// Subtrees the value network actually scored (embedding-table
    /// misses): every leaf a join can use, then each new join root.
    int64_t network_evals = 0;
    /// Subtree-scoring requests the search issued, including table hits
    /// (network_evals counts only the misses).
    int64_t scored_states = 0;
    /// Inference invocations that served the misses: one per batched call
    /// with batch_scoring, one per Predict without (== network_evals then).
    int64_t batch_calls = 0;
    /// Child terms computed (ValueNetwork::ChildTerms): one per distinct
    /// (subtree, side) a scored join uses as a child. 0 without
    /// batch_scoring.
    int64_t child_terms = 0;
  };

  /// Plans `query`. `rng` is only used when epsilon_collapse > 0.
  StatusOr<PlanningResult> TopK(const Query& query, Rng* rng = nullptr) const;

  const PlannerOptions& options() const { return options_; }
  void set_options(const PlannerOptions& options) { options_ = options; }

  /// Routes batched scoring through `service`, which scores on the calling
  /// thread and counts (and traces) the calls. Null (the default) scores via
  /// the network directly. The service must wrap the same network.
  void set_inference_service(InferenceService* service) {
    service_ = service;
  }

 private:
  const Schema* schema_;
  const Featurizer* featurizer_;
  const ValueNetwork* network_;
  InferenceService* service_ = nullptr;
  PlannerOptions options_;
};

}  // namespace balsa
