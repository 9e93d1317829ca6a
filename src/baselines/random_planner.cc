#include "src/baselines/random_planner.h"

#include <vector>

#include "src/cost/cost_model.h"

namespace balsa {

StatusOr<Plan> RandomPlanner::Sample(const Query& query, Rng* rng) const {
  struct Piece {
    Plan plan;
    TableSet tables;
  };
  std::vector<Piece> forest;
  for (int rel = 0; rel < query.num_relations(); ++rel) {
    Piece p;
    ScanOp op = ScanOp::kSeqScan;
    if (IndexScanEffective(*schema_, query, rel) && rng->Bernoulli(0.5)) {
      op = ScanOp::kIndexScan;
    }
    p.plan.set_root(p.plan.AddScan(rel, op));
    p.tables = TableSet::Single(rel);
    forest.push_back(std::move(p));
  }

  while (forest.size() > 1) {
    // Collect joinable ordered pairs.
    std::vector<std::pair<int, int>> pairs;
    for (size_t i = 0; i < forest.size(); ++i) {
      for (size_t j = 0; j < forest.size(); ++j) {
        if (i == j) continue;
        if (query.CanJoin(forest[i].tables, forest[j].tables)) {
          pairs.emplace_back(static_cast<int>(i), static_cast<int>(j));
        }
      }
    }
    if (pairs.empty()) {
      return Status::Internal("random planner stuck: disconnected forest in " +
                              query.name());
    }
    auto [i, j] = pairs[rng->Uniform(pairs.size())];

    std::vector<JoinOp> ops{JoinOp::kHashJoin, JoinOp::kMergeJoin,
                            JoinOp::kNLJoin};
    if (forest[j].tables.size() == 1 &&
        IndexNLValid(*schema_, query, forest[i].tables,
                     forest[j].tables.First())) {
      ops.push_back(JoinOp::kIndexNLJoin);
    }
    JoinOp op = ops[rng->Uniform(ops.size())];

    Piece joined;
    joined.plan = ComposeJoin(forest[i].plan, forest[j].plan, op);
    joined.tables = forest[i].tables.Union(forest[j].tables);
    size_t hi = std::max(i, j), lo = std::min(i, j);
    forest.erase(forest.begin() + hi);
    forest.erase(forest.begin() + lo);
    forest.push_back(std::move(joined));
  }
  return std::move(forest[0].plan);
}

}  // namespace balsa
