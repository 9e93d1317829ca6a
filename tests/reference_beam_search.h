// A frozen copy of BeamSearchPlanner::TopK as it was before the per-thread
// workspace: a fresh arena of node-based containers per search, a
// std::vector of ids per state. Every subtree is scored by a full Predict
// over its plan, while the counters of the incremental search (one batch
// call per scoring round with a miss, one child term per distinct
// (subtree, side) a scored join uses) are kept as that search keeps them.
// The search tries every join operator and both scan kinds, and stops
// after 20000 expansions, as the planner does.
//
// Tests compare TopK against it: the same plans node for node, the same
// predicted_ms bits and the same counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/balsa/planner.h"
#include "src/cost/cost_model.h"

namespace balsa {
namespace reference {

struct Subtree {
  uint64_t fingerprint = 0;
  bool scored = false;
  bool has_term[2] = {false, false};
  double score = 0;
};

class SubtreeArena {
 public:
  int Leaf(int relation, ScanOp op) {
    auto [it, inserted] = ids_.try_emplace(
        Plan::LeafFingerprint(relation, op), forest_.num_nodes());
    if (inserted) Add(forest_.AddScan(relation, op), it->first);
    return it->second;
  }

  int Join(JoinOp op, int left, int right) {
    auto [it, inserted] = ids_.try_emplace(
        Plan::JoinFingerprint(op, at(left).fingerprint, at(right).fingerprint),
        forest_.num_nodes());
    if (inserted) Add(forest_.AddJoin(left, right, op), it->first);
    return it->second;
  }

  const PlanNode& node(int id) const { return forest_.node(id); }
  Subtree& at(int id) { return subtrees_[id]; }
  const Subtree& at(int id) const { return subtrees_[id]; }

  Plan ToPlan(int id) const { return ExtractSubtree(forest_, id); }

 private:
  void Add(int id, uint64_t fingerprint) {
    subtrees_.emplace_back();
    subtrees_[id].fingerprint = fingerprint;
  }

  Plan forest_;
  std::vector<Subtree> subtrees_;
  std::unordered_map<uint64_t, int> ids_;
};

struct State {
  std::vector<int> ids;
  double score = 0;
};

inline uint64_t Signature(std::vector<uint64_t>* fps) {
  std::sort(fps->begin(), fps->end());
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (uint64_t fp : *fps) {
    h ^= fp + 0xBF58476D1CE4E5B9ULL + (h << 6) + (h >> 2);
  }
  return h;
}

inline StatusOr<BeamSearchPlanner::PlanningResult> TopK(
    const Schema* schema_, const Featurizer* featurizer_,
    const ValueNetwork* network_, const PlannerOptions& options_,
    const Query& query, Rng* rng) {
  BeamSearchPlanner::PlanningResult result;
  if (options_.epsilon_collapse > 0 && rng == nullptr) {
    return Status::InvalidArgument("epsilon_collapse requires an rng");
  }

  nn::Vec query_feat = featurizer_->QueryFeatures(query);
  SubtreeArena arena;

  auto score_pending = [&](const std::vector<int>& pending) {
    result.scored_states += static_cast<int64_t>(pending.size());
    std::vector<int> need;
    for (int id : pending) {
      Subtree& s = arena.at(id);
      if (s.scored) continue;
      s.scored = true;
      need.push_back(id);
    }
    if (need.empty()) return;
    for (int id : need) {
      const PlanNode& root = arena.node(id);
      if (!root.is_join) continue;
      for (int side : {0, 1}) {
        Subtree& child = arena.at(side == 0 ? root.left : root.right);
        if (child.has_term[side]) continue;
        child.has_term[side] = true;
        result.child_terms++;
      }
    }
    for (int id : need) {
      arena.at(id).score = network_->Predict(
          query_feat, featurizer_->PlanFeatures(query, arena.ToPlan(id)));
    }
    result.batch_calls++;
    result.network_evals += static_cast<int64_t>(need.size());
  };

  const int num_rels = query.num_relations();
  std::vector<std::vector<int>> leaf_variants(static_cast<size_t>(num_rels));
  std::vector<int> index_inner(static_cast<size_t>(num_rels), -1);
  {
    std::vector<int> pending;
    for (int rel = 0; rel < num_rels; ++rel) {
      std::vector<int>& variants = leaf_variants[rel];
      variants.push_back(arena.Leaf(rel, ScanOp::kSeqScan));
      if (IndexScanEffective(*schema_, query, rel)) {
        variants.push_back(arena.Leaf(rel, ScanOp::kIndexScan));
      }
      pending.insert(pending.end(), variants.begin(), variants.end());
      if (IndexNLValid(*schema_, query, query.AllTables().Without(rel),
                       rel)) {
        index_inner[rel] = arena.Leaf(rel, ScanOp::kIndexScan);
        if (variants.size() == 1) pending.push_back(index_inner[rel]);
      }
    }
    score_pending(pending);
  }

  State root;
  for (int rel = 0; rel < num_rels; ++rel) {
    root.ids.push_back(leaf_variants[rel][0]);
    root.score = std::max(root.score, arena.at(root.ids.back()).score);
  }
  if (num_rels == 1) {
    result.plans.push_back({arena.ToPlan(root.ids[0]), root.score});
    return result;
  }

  const std::vector<JoinOp> join_ops{JoinOp::kHashJoin, JoinOp::kMergeJoin,
                                     JoinOp::kNLJoin};

  std::vector<State> beam{std::move(root)};
  std::unordered_set<uint64_t> visited;
  std::unordered_set<uint64_t> emitted;
  struct Complete {
    int id;
    double score;
  };
  std::vector<Complete> complete;
  std::vector<uint64_t> fps;
  int expansions = 0;

  while (!beam.empty() &&
         static_cast<int>(complete.size()) < options_.top_k &&
         expansions < 20000) {
    auto best_it =
        std::min_element(beam.begin(), beam.end(),
                         [](const State& a, const State& b) {
                           return a.score < b.score;
                         });
    State state = std::move(*best_it);
    beam.erase(best_it);
    expansions++;

    struct Child {
      int i, j, joined;
    };
    std::vector<Child> children;
    const int n = static_cast<int>(state.ids.size());

    int forced_left = -1;
    if (!options_.bushy) {
      for (int i = 0; i < n; ++i) {
        if (arena.node(state.ids[i]).tables.size() > 1) forced_left = i;
      }
    }

    for (int i = 0; i < n; ++i) {
      if (forced_left >= 0 && i != forced_left) continue;
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const TableSet left = arena.node(state.ids[i]).tables;
        const TableSet right = arena.node(state.ids[j]).tables;
        if (!options_.bushy && right.size() > 1) continue;
        if (!query.CanJoin(left, right)) continue;

        const bool left_is_leaf = left.size() == 1;
        const bool right_is_leaf = right.size() == 1;
        const std::vector<int>* lv =
            left_is_leaf ? &leaf_variants[left.First()] : nullptr;
        const std::vector<int>* rv =
            right_is_leaf ? &leaf_variants[right.First()] : nullptr;
        const int* lefts = lv ? lv->data() : &state.ids[i];
        const size_t num_lefts = lv ? lv->size() : 1;
        const int* rights = rv ? rv->data() : &state.ids[j];
        const size_t num_rights = rv ? rv->size() : 1;

        auto add_children = [&](JoinOp op, const int* inners,
                                size_t num_inners) {
          for (size_t li = 0; li < num_lefts; ++li) {
            for (size_t ri = 0; ri < num_inners; ++ri) {
              children.push_back({i, j, arena.Join(op, lefts[li], inners[ri])});
            }
          }
        };
        for (JoinOp op : join_ops) add_children(op, rights, num_rights);
        if (right_is_leaf &&
            IndexNLValid(*schema_, query, left, right.First())) {
          add_children(JoinOp::kIndexNLJoin, &index_inner[right.First()], 1);
        }
      }
    }

    {
      std::vector<int> pending;
      pending.reserve(children.size());
      for (const Child& child : children) pending.push_back(child.joined);
      score_pending(pending);
    }

    for (const Child& child : children) {
      const Subtree& joined = arena.at(child.joined);
      if (n == 2) {
        if (emitted.insert(joined.fingerprint).second) {
          complete.push_back({child.joined, joined.score});
        }
        continue;
      }
      fps.clear();
      for (int x = 0; x < n; ++x) {
        if (x != child.i && x != child.j) {
          fps.push_back(arena.at(state.ids[x]).fingerprint);
        }
      }
      fps.push_back(joined.fingerprint);
      if (!visited.insert(Signature(&fps)).second) continue;
      State next;
      next.ids.reserve(static_cast<size_t>(n) - 1);
      for (int x = 0; x < n; ++x) {
        if (x != child.i && x != child.j) {
          next.ids.push_back(state.ids[x]);
          next.score = std::max(next.score, arena.at(state.ids[x]).score);
        }
      }
      next.ids.push_back(child.joined);
      next.score = std::max(next.score, joined.score);
      beam.push_back(std::move(next));
    }

    if (options_.epsilon_collapse > 0 && !beam.empty() &&
        rng->Bernoulli(options_.epsilon_collapse)) {
      State kept = std::move(beam[rng->Uniform(beam.size())]);
      beam.clear();
      beam.push_back(std::move(kept));
    }

    if (static_cast<int>(beam.size()) > options_.beam_size) {
      std::nth_element(beam.begin(), beam.begin() + options_.beam_size - 1,
                       beam.end(), [](const State& a, const State& b) {
                         return a.score < b.score;
                       });
      beam.resize(options_.beam_size);
    }
  }

  if (complete.empty()) {
    return Status::Internal("beam search found no complete plan for query " +
                            query.name());
  }
  std::sort(complete.begin(), complete.end(),
            [](const Complete& a, const Complete& b) {
              return a.score < b.score;
            });
  if (static_cast<int>(complete.size()) > options_.top_k) {
    complete.resize(static_cast<size_t>(options_.top_k));
  }
  for (const Complete& c : complete) {
    result.plans.push_back({arena.ToPlan(c.id), c.score});
  }
  return result;
}

}  // namespace reference
}  // namespace balsa
