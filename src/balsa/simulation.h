// Simulation bootstrapping (§3): batched data collection from a cost-model
// "simulator" using bottom-up DP enumeration with subplan data augmentation,
// producing the dataset D_sim that V_sim is trained on.
#pragma once

#include <cstdint>
#include <vector>

#include "src/cost/cost_model.h"
#include "src/model/featurizer.h"
#include "src/model/value_network.h"
#include "src/plan/query_graph.h"
#include "src/util/status.h"

namespace balsa {

/// Queries joining at least this many relations are skipped (DP cost grows
/// too fast; the paper sets n = 12).
inline constexpr int kSimulationSkipRelations = 12;

struct SimulationOptions {
  /// Reservoir cap on augmented data points per query (0 = unlimited).
  /// Bounds dataset size like the paper's ~5.5K points per JOB query.
  size_t max_points_per_query = 6000;
  /// Enumerate with a single canonical physical operator (the cost model is
  /// logical-only; physical variants would only duplicate costs).
  bool canonical_operators_only = true;
  bool bushy = true;
  uint64_t seed = 5;
  /// Real threads collecting queries in parallel (0 = hardware
  /// concurrency). Each query's enumeration and reservoir rng derive only
  /// from (seed, query index) and results merge in query order, so the
  /// dataset is identical for any thread count.
  int num_threads = 0;
};

struct SimulationStats {
  size_t num_points = 0;
  size_t num_enumerated_plans = 0;
  int num_queries_used = 0;
  int num_queries_skipped = 0;
  double collect_seconds = 0;  // real wall clock
};

/// Enumerates plans for every training query against `simulator` and returns
/// the augmented dataset (query scope features, subplan features, total
/// cost). `stats` is optional.
StatusOr<std::vector<TrainingPoint>> CollectSimulationData(
    const std::vector<const Query*>& queries, const Schema& schema,
    const CostModelInterface& simulator, const Featurizer& featurizer,
    const SimulationOptions& options, SimulationStats* stats = nullptr);

}  // namespace balsa
