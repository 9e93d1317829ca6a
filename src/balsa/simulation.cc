#include "src/balsa/simulation.h"

#include <chrono>
#include <utility>

#include "src/optimizer/dp_optimizer.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace balsa {

StatusOr<std::vector<TrainingPoint>> CollectSimulationData(
    const std::vector<const Query*>& queries, const Schema& schema,
    const CostModelInterface& simulator, const Featurizer& featurizer,
    const SimulationOptions& options, SimulationStats* stats) {
  auto start = std::chrono::steady_clock::now();
  SimulationStats local;
  SimulationStats& s = stats ? *stats : local;
  s = SimulationStats();

  DpOptimizerOptions dp_options;
  dp_options.bushy = options.bushy;
  if (options.canonical_operators_only) {
    dp_options.enable_merge_join = false;
    dp_options.enable_nl_join = false;
    dp_options.enable_index_nl = false;
  }
  DpOptimizer enumerator(&schema, &simulator, dp_options);

  std::vector<const Query*> used;
  for (const Query* query : queries) {
    if (query->num_relations() >= kSimulationSkipRelations) {
      s.num_queries_skipped++;
      continue;
    }
    used.push_back(query);
  }
  s.num_queries_used = static_cast<int>(used.size());

  // Per-query collection tasks, fanned across the runtime's thread pool.
  // The enumerator, cost model, and featurizer are shared read-only; each
  // task owns its reservoir and rng, and results merge in query order.
  struct PerQuery {
    std::vector<TrainingPoint> reservoir;
    size_t num_enumerated = 0;
  };
  std::vector<PerQuery> collected(used.size());
  ThreadPool pool(options.num_threads);
  Status st = ParallelForStatus(&pool, used.size(), [&](size_t qi) -> Status {
    const Query* query = used[qi];
    PerQuery& out = collected[qi];
    // Per-query reservoir so large queries cannot drown out small ones;
    // the rng is a pure function of (seed, query index).
    Rng rng(options.seed ^ ((qi + 1) * 0x9E3779B97F4A7C15ULL));
    size_t seen = 0;
    auto add_point = [&](TrainingPoint pt) {
      seen++;
      if (options.max_points_per_query == 0 ||
          out.reservoir.size() < options.max_points_per_query) {
        out.reservoir.push_back(std::move(pt));
        return;
      }
      size_t slot = rng.Uniform(seen);
      if (slot < out.reservoir.size()) out.reservoir[slot] = std::move(pt);
    };

    return enumerator.EnumerateAll(
        *query,
        [&](const Query& q, TableSet scope, const Plan& plan, double cost) {
          out.num_enumerated++;
          // Subplan augmentation (§3.2): every subtree of the enumerated
          // plan yields a point with the same scope and total cost.
          nn::Vec scope_feat = featurizer.QueryFeatures(q, scope);
          std::vector<nn::TreeSample> subtrees =
              featurizer.SubtreeFeatures(q, plan);
          for (int node = 0; node < plan.num_nodes(); ++node) {
            TrainingPoint pt;
            pt.query = scope_feat;
            pt.plan = std::move(subtrees[node]);
            pt.label = cost;
            add_point(std::move(pt));
          }
        });
  });
  BALSA_RETURN_IF_ERROR(st);

  std::vector<TrainingPoint> data;
  for (PerQuery& per : collected) {
    s.num_enumerated_plans += per.num_enumerated;
    data.insert(data.end(), std::make_move_iterator(per.reservoir.begin()),
                std::make_move_iterator(per.reservoir.end()));
  }

  s.num_points = data.size();
  auto end = std::chrono::steady_clock::now();
  s.collect_seconds = std::chrono::duration<double>(end - start).count();
  return data;
}

}  // namespace balsa
