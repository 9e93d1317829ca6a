// Best-first beam search over partial-plan sets, guided by the learned value
// network (§4.2). A search state is a set of partial plans for the query;
// actions join two eligible plans with a physical join operator (assigning
// scan operators when a side is a base table). States are scored by
// V(state) = max over the state's partial plans of V(query, plan); the beam
// keeps the b best states and the search runs until k complete plans are
// found, returned in ascending predicted latency. The action space is the
// whole physical one: hash, merge, nested-loop and index nested-loop joins,
// and both scan kinds where an index helps.
//
// Each scoring round scores only the new join roots, in one batched call
// (ValueNetwork::ScoreRoots) from their children's cached embedding rows;
// a score equals a full Predict over the subtree, bit for bit.
//
// A search keeps all its state in one per-thread workspace that TopK clears
// on entry, keeping its capacity: the hash-consed subtree arena, one
// embedding row per subtree (ValueNetwork's h1 | pooled | left term | right
// term layout) beside its score and node features, open-addressing tables
// for the fingerprint -> id map and the visited and emitted sets, and the
// beam as slices of one id pool. A child state stays a reference to its
// parent until it survives the beam cut; only then are its ids written.
// After a thread's first searches, TopK
// allocates only its result. A search that grew the workspace past its
// retained size (4 MB; JOB searches stay under 1 MB) frees it when it ends.
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
  /// epsilon-greedy beam search (§8.3.3 ablation): with this probability
  /// per expansion, the beam is collapsed to one random state.
  double epsilon_collapse = 0.0;
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
    /// ScoreRoots calls that served the misses: one per scoring round that
    /// had a miss (the root state's leaves, then each expansion's frontier).
    int64_t batch_calls = 0;
    /// Child terms computed (ValueNetwork::ChildTerms): one per distinct
    /// (subtree, side) a scored join uses as a child.
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
  struct Workspace;

  /// The search itself, in the calling thread's workspace (cleared on
  /// entry): fills `result` but for planning_time_ms.
  Status Search(const Query& query, Rng* rng, Workspace* ws,
                PlanningResult* result) const;

  const Schema* schema_;
  const Featurizer* featurizer_;
  const ValueNetwork* network_;
  InferenceService* service_ = nullptr;
  PlannerOptions options_;
};

}  // namespace balsa
