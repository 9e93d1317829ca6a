#include "src/balsa/planner.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "src/cost/cost_model.h"

namespace balsa {

namespace {

// What a search keeps of one subtree besides its root node.
struct Subtree {
  uint64_t fingerprint = 0;
  bool scored = false;                // set when queued for scoring
  bool has_term[2] = {false, false};  // set when queued for ChildTerms
  SubtreeEmbedding embedding;  // only the score without batch_scoring
};

// The hash-consed subtrees of one search. States share subtrees by id, so
// each subtree is built, fingerprinted and scored once per search however
// many states hold it. A subtree's id is its root's index in a forest plan,
// whose join nodes point at their children's ids. Ids stay valid as the
// arena grows; references from at() do not.
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

  // The subtree as a standalone plan, copied in postorder: ComposeJoin's
  // node layout.
  Plan ToPlan(int id) const { return ExtractSubtree(forest_, id); }

 private:
  void Add(int id, uint64_t fingerprint) {
    subtrees_.emplace_back();
    subtrees_[id].fingerprint = fingerprint;
  }

  Plan forest_;
  std::vector<Subtree> subtrees_;          // by id
  std::unordered_map<uint64_t, int> ids_;  // fingerprint -> id
};

struct State {
  std::vector<int> ids;  // arena ids of the state's partial plans
  double score = 0;      // max over them (a state runs at least this long)
};

// Order-insensitive identity of a state from its subtree fingerprints;
// sorts `fps`.
uint64_t Signature(std::vector<uint64_t>* fps) {
  std::sort(fps->begin(), fps->end());
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (uint64_t fp : *fps) {
    h ^= fp + 0xBF58476D1CE4E5B9ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

StatusOr<BeamSearchPlanner::PlanningResult> BeamSearchPlanner::TopK(
    const Query& query, Rng* rng) const {
  auto start = std::chrono::steady_clock::now();
  PlanningResult result;
  if (options_.epsilon_collapse > 0 && rng == nullptr) {
    return Status::InvalidArgument("epsilon_collapse requires an rng");
  }

  nn::Vec query_feat = featurizer_->QueryFeatures(query);
  SubtreeArena arena;

  // Scores every subtree in `pending` not scored yet — in one batched
  // root-only pass (batch_scoring) or one full Predict per plan. Both paths
  // produce identical scores (the batched kernels accumulate in MatVec's
  // exact order), so the search below is oblivious to the mode. Every
  // child of a pending join must already be scored.
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
    if (options_.batch_scoring) {
      // Fill the child terms the new roots read, here on the planning
      // thread, so scoring (maybe on a service worker) only reads children.
      std::vector<TermJob> terms;
      for (int id : need) {
        const PlanNode& root = arena.node(id);
        if (!root.is_join) continue;
        for (int side : {0, 1}) {
          Subtree& child = arena.at(side == 0 ? root.left : root.right);
          if (child.has_term[side]) continue;
          child.has_term[side] = true;
          terms.push_back({&child.embedding, side});
        }
      }
      network_->ChildTerms(terms);
      result.child_terms += static_cast<int64_t>(terms.size());

      std::vector<nn::Vec> node_feats;
      node_feats.reserve(need.size());
      std::vector<RootJob> jobs(need.size());
      for (size_t i = 0; i < need.size(); ++i) {
        const PlanNode& root = arena.node(need[i]);
        node_feats.push_back(featurizer_->NodeFeatures(query, root));
        jobs[i].query = &query_feat;
        jobs[i].node = &node_feats.back();
        if (root.is_join) {
          jobs[i].left = &arena.at(root.left).embedding;
          jobs[i].right = &arena.at(root.right).embedding;
        }
      }
      std::vector<SubtreeEmbedding> scored =
          service_ ? service_->ScoreRoots(jobs) : network_->ScoreRoots(jobs);
      for (size_t i = 0; i < need.size(); ++i) {
        arena.at(need[i]).embedding = std::move(scored[i]);
      }
      result.batch_calls++;
    } else {
      for (int id : need) {
        arena.at(id).embedding.score = network_->Predict(
            query_feat, featurizer_->PlanFeatures(query, arena.ToPlan(id)));
        result.batch_calls++;
      }
    }
    result.network_evals += static_cast<int64_t>(need.size());
  };

  // Per relation: the scan variants a join side can use, and the index
  // scan an index nested-loop join probes its inner leaf with (ComposeJoin's
  // rewrite) when some join column of the relation is indexed. All are
  // interned and embedded up front, in one call.
  const int num_rels = query.num_relations();
  std::vector<std::vector<int>> leaf_variants(static_cast<size_t>(num_rels));
  std::vector<int> index_inner(static_cast<size_t>(num_rels), -1);
  {
    std::vector<int> pending;
    for (int rel = 0; rel < num_rels; ++rel) {
      std::vector<int>& variants = leaf_variants[rel];
      variants.push_back(arena.Leaf(rel, ScanOp::kSeqScan));
      if (options_.enable_index_scan &&
          IndexScanEffective(*schema_, query, rel)) {
        variants.push_back(arena.Leaf(rel, ScanOp::kIndexScan));
      }
      pending.insert(pending.end(), variants.begin(), variants.end());
      if (options_.enable_index_nl_join &&
          IndexNLValid(*schema_, query, query.AllTables().Without(rel), rel)) {
        index_inner[rel] = arena.Leaf(rel, ScanOp::kIndexScan);
        if (variants.size() == 1) pending.push_back(index_inner[rel]);
      }
    }
    score_pending(pending);
  }

  // Root state: every relation as an unjoined sequential scan.
  State root;
  for (int rel = 0; rel < num_rels; ++rel) {
    root.ids.push_back(leaf_variants[rel][0]);
    root.score =
        std::max(root.score, arena.at(root.ids.back()).embedding.score);
  }
  if (num_rels == 1) {
    result.plans.push_back({arena.ToPlan(root.ids[0]), root.score});
    auto end = std::chrono::steady_clock::now();
    result.planning_time_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    return result;
  }

  std::vector<JoinOp> join_ops;  // index-NL is added per pair
  if (options_.enable_hash_join) join_ops.push_back(JoinOp::kHashJoin);
  if (options_.enable_merge_join) join_ops.push_back(JoinOp::kMergeJoin);
  if (options_.enable_nl_join) join_ops.push_back(JoinOp::kNLJoin);

  std::vector<State> beam{std::move(root)};
  std::unordered_set<uint64_t> visited;
  std::unordered_set<uint64_t> emitted;  // complete-plan fingerprints
  // Complete plans found; each becomes a Plan only if it is among the k
  // best.
  struct Complete {
    int id;
    double score;
  };
  std::vector<Complete> complete;
  std::vector<uint64_t> fps;  // signature scratch
  int expansions = 0;

  while (!beam.empty() &&
         static_cast<int>(complete.size()) < options_.top_k &&
         expansions < options_.max_expansions) {
    // Pop the best state.
    auto best_it =
        std::min_element(beam.begin(), beam.end(),
                         [](const State& a, const State& b) {
                           return a.score < b.score;
                         });
    State state = std::move(*best_it);
    beam.erase(best_it);
    expansions++;

    // Build the expansion frontier structurally: each child state replaces
    // entries i and j of `state` with their new join, scored below in one
    // batch.
    struct Child {
      int i, j, joined;
    };
    std::vector<Child> children;
    const int n = static_cast<int>(state.ids.size());

    // Left-deep mode: once a multi-relation plan exists, it must be the
    // outer side of every further join.
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

        // A base relation joins as any of its scan variants (a state holds
        // it as its sequential scan); a joined subtree as itself.
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
        // Index-NL probes its inner leaf through an index; scan variants of
        // the inner are meaningless for it.
        if (options_.enable_index_nl_join && right_is_leaf &&
            IndexNLValid(*schema_, query, left, right.First())) {
          add_children(JoinOp::kIndexNLJoin, &index_inner[right.First()], 1);
        }
      }
    }

    // Score the frontier's new join roots (one ScoreRoots in batch mode).
    {
      std::vector<int> pending;
      pending.reserve(children.size());
      for (const Child& child : children) pending.push_back(child.joined);
      score_pending(pending);
    }

    // A child state holds the state's other entries, then the new join.
    // Only unseen incomplete ones are built.
    for (const Child& child : children) {
      const Subtree& joined = arena.at(child.joined);
      if (n == 2) {
        if (emitted.insert(joined.fingerprint).second) {
          complete.push_back({child.joined, joined.embedding.score});
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
          next.score =
              std::max(next.score, arena.at(state.ids[x]).embedding.score);
        }
      }
      next.ids.push_back(child.joined);
      next.score = std::max(next.score, joined.embedding.score);
      beam.push_back(std::move(next));
    }

    // epsilon-greedy beam collapse (ablation arm, §8.3.3).
    if (options_.epsilon_collapse > 0 && !beam.empty() &&
        rng->Bernoulli(options_.epsilon_collapse)) {
      State kept = std::move(beam[rng->Uniform(beam.size())]);
      beam.clear();
      beam.push_back(std::move(kept));
    }

    // Keep only the best b states.
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
  // One expansion can emit several complete plans; keep the k best.
  if (static_cast<int>(complete.size()) > options_.top_k) {
    complete.resize(static_cast<size_t>(options_.top_k));
  }
  for (const Complete& c : complete) {
    result.plans.push_back({arena.ToPlan(c.id), c.score});
  }
  auto end = std::chrono::steady_clock::now();
  result.planning_time_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return result;
}

}  // namespace balsa
