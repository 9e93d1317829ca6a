#include "src/balsa/planner.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "src/cost/cost_model.h"

namespace balsa {

namespace {

// One partial plan of a search state, with its cached network score.
struct Entry {
  Plan plan;
  double score = 0;
};

struct State {
  std::vector<Entry> entries;
  double score = 0;  // max over entries (a state runs at least this long)

  bool Complete() const { return entries.size() == 1; }

  // Order-insensitive identity of the state (set of subtree fingerprints).
  uint64_t Signature() const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    std::vector<uint64_t> fps;
    fps.reserve(entries.size());
    for (const Entry& e : entries) fps.push_back(e.plan.Fingerprint());
    std::sort(fps.begin(), fps.end());
    for (uint64_t fp : fps) {
      h ^= fp + 0xBF58476D1CE4E5B9ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace

StatusOr<BeamSearchPlanner::PlanningResult> BeamSearchPlanner::TopK(
    const Query& query, Rng* rng) const {
  auto start = std::chrono::steady_clock::now();
  PlanningResult result;
  if (options_.epsilon_collapse > 0 && rng == nullptr) {
    return Status::InvalidArgument("epsilon_collapse requires an rng");
  }

  nn::Vec query_feat = featurizer_->QueryFeatures(query);
  // Per-search embedding table, keyed by subtree fingerprint. Composed
  // subplans recur across states, and a join is scored from its root's
  // columns plus its children's entries here (ValueNetwork::ScoreRoots).
  // Without batch_scoring an entry carries only its score.
  std::unordered_map<uint64_t, SubtreeEmbedding> embeddings;

  // Scores every plan in `pending` that the table has not seen — in one
  // batched root-only pass (batch_scoring) or one full Predict per plan.
  // Both paths produce identical scores (the batched kernels accumulate in
  // MatVec's exact order), so the search below is oblivious to the mode.
  // Every child of a pending join must already be in the table.
  auto score_pending = [&](const std::vector<const Plan*>& pending) {
    result.scored_states += static_cast<int64_t>(pending.size());
    std::vector<const Plan*> need;
    std::vector<uint64_t> need_fps;
    std::unordered_set<uint64_t> queued;
    for (const Plan* plan : pending) {
      uint64_t fp = plan->Fingerprint();
      if (embeddings.count(fp) || !queued.insert(fp).second) continue;
      need.push_back(plan);
      need_fps.push_back(fp);
    }
    if (need.empty()) return;
    if (options_.batch_scoring) {
      std::vector<nn::Vec> node_feats;
      node_feats.reserve(need.size());
      std::vector<RootJob> jobs(need.size());
      for (size_t i = 0; i < need.size(); ++i) {
        const Plan& plan = *need[i];
        const PlanNode& root = plan.node(plan.root());
        node_feats.push_back(featurizer_->NodeFeatures(query, root));
        jobs[i].query = &query_feat;
        jobs[i].node = &node_feats.back();
        if (root.is_join) {
          jobs[i].left = &embeddings.at(plan.Fingerprint(root.left));
          jobs[i].right = &embeddings.at(plan.Fingerprint(root.right));
        }
      }
      std::vector<SubtreeEmbedding> scored =
          service_ ? service_->ScoreRoots(jobs) : network_->ScoreRoots(jobs);
      for (size_t i = 0; i < need.size(); ++i) {
        embeddings.emplace(need_fps[i], std::move(scored[i]));
      }
      result.batch_calls++;
    } else {
      for (size_t i = 0; i < need.size(); ++i) {
        SubtreeEmbedding scored;
        scored.score = network_->Predict(
            query_feat, featurizer_->PlanFeatures(query, *need[i]));
        embeddings.emplace(need_fps[i], std::move(scored));
        result.batch_calls++;
      }
    }
    result.network_evals += static_cast<int64_t>(need.size());
  };

  auto lookup_score = [&](const Plan& plan) {
    return embeddings.at(plan.Fingerprint()).score;
  };

  // Scan-operator variants of a base relation used as a join side.
  auto leaf_variants = [&](int rel) {
    std::vector<Plan> variants;
    Plan seq;
    seq.set_root(seq.AddScan(rel, ScanOp::kSeqScan));
    variants.push_back(std::move(seq));
    if (options_.enable_index_scan &&
        IndexScanEffective(*schema_, query, rel)) {
      Plan idx;
      idx.set_root(idx.AddScan(rel, ScanOp::kIndexScan));
      variants.push_back(std::move(idx));
    }
    return variants;
  };

  // Root state: every relation as an unjoined sequential scan.
  State root;
  for (int rel = 0; rel < query.num_relations(); ++rel) {
    Entry e;
    e.plan.set_root(e.plan.AddScan(rel, ScanOp::kSeqScan));
    root.entries.push_back(std::move(e));
  }
  {
    // Embed every leaf a join can have, in one call: the scan variants,
    // plus the index scan that an index nested-loop join rewrites its inner
    // leaf to (ComposeJoin) when some join column of the relation is
    // indexed.
    std::vector<Plan> leaves;
    for (int rel = 0; rel < query.num_relations(); ++rel) {
      std::vector<Plan> variants = leaf_variants(rel);
      const bool index_nl_inner =
          options_.enable_index_nl_join &&
          IndexNLValid(*schema_, query, query.AllTables().Without(rel), rel);
      if (variants.size() == 1 && index_nl_inner) {
        Plan idx;
        idx.set_root(idx.AddScan(rel, ScanOp::kIndexScan));
        variants.push_back(std::move(idx));
      }
      for (Plan& leaf : variants) leaves.push_back(std::move(leaf));
    }
    std::vector<const Plan*> pending;
    for (const Plan& leaf : leaves) pending.push_back(&leaf);
    score_pending(pending);
  }
  root.score = 0;
  for (Entry& e : root.entries) {
    e.score = lookup_score(e.plan);
    root.score = std::max(root.score, e.score);
  }
  if (query.num_relations() == 1) {
    result.plans.push_back({root.entries[0].plan, root.entries[0].score});
    auto end = std::chrono::steady_clock::now();
    result.planning_time_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    return result;
  }

  std::vector<State> beam{std::move(root)};
  std::unordered_set<uint64_t> visited;
  std::unordered_set<uint64_t> emitted;  // complete-plan fingerprints
  int expansions = 0;

  while (!beam.empty() &&
         static_cast<int>(result.plans.size()) < options_.top_k &&
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

    // Build the expansion frontier structurally; every child's new joined
    // plan is its last entry, scored below in one batch.
    std::vector<State> children;
    const int n = static_cast<int>(state.entries.size());

    // Left-deep mode: once a multi-relation plan exists, it must be the
    // outer side of every further join.
    int forced_left = -1;
    if (!options_.bushy) {
      for (int i = 0; i < n; ++i) {
        if (state.entries[i].plan.RootTables().size() > 1) forced_left = i;
      }
    }

    for (int i = 0; i < n; ++i) {
      if (forced_left >= 0 && i != forced_left) continue;
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const Plan& left = state.entries[i].plan;
        const Plan& right = state.entries[j].plan;
        if (!options_.bushy && right.RootTables().size() > 1) continue;
        if (!query.CanJoin(left.RootTables(), right.RootTables())) continue;

        bool left_is_leaf = left.RootTables().size() == 1;
        bool right_is_leaf = right.RootTables().size() == 1;
        std::vector<Plan> lefts =
            left_is_leaf ? leaf_variants(left.RootTables().First())
                         : std::vector<Plan>{left};
        std::vector<Plan> rights =
            right_is_leaf ? leaf_variants(right.RootTables().First())
                          : std::vector<Plan>{right};

        std::vector<JoinOp> ops;
        if (options_.enable_hash_join) ops.push_back(JoinOp::kHashJoin);
        if (options_.enable_merge_join) ops.push_back(JoinOp::kMergeJoin);
        if (options_.enable_nl_join) ops.push_back(JoinOp::kNLJoin);
        if (options_.enable_index_nl_join && right_is_leaf &&
            IndexNLValid(*schema_, query, left.RootTables(),
                         right.RootTables().First())) {
          ops.push_back(JoinOp::kIndexNLJoin);
        }

        for (JoinOp op : ops) {
          for (const Plan& l : lefts) {
            // Index-NL rewrites the inner to an index probe; scan variants
            // of the inner are meaningless for it.
            size_t num_rights =
                (op == JoinOp::kIndexNLJoin) ? 1 : rights.size();
            for (size_t ri = 0; ri < num_rights; ++ri) {
              const Plan& r = rights[ri];
              State child;
              child.entries.reserve(state.entries.size() - 1);
              for (int x = 0; x < n; ++x) {
                if (x != i && x != j) child.entries.push_back(state.entries[x]);
              }
              Entry joined;
              joined.plan = ComposeJoin(l, r, op);
              child.entries.push_back(std::move(joined));
              children.push_back(std::move(child));
            }
          }
        }
      }
    }

    // Score the frontier's new join roots (one ScoreRoots in batch mode).
    {
      std::vector<const Plan*> pending;
      pending.reserve(children.size());
      for (const State& child : children) {
        pending.push_back(&child.entries.back().plan);
      }
      score_pending(pending);
    }
    for (State& child : children) {
      Entry& joined = child.entries.back();
      joined.score = lookup_score(joined.plan);
      child.score = 0;
      for (const Entry& e : child.entries) {
        child.score = std::max(child.score, e.score);
      }
    }

    for (State& child : children) {
      if (child.Complete()) {
        uint64_t fp = child.entries[0].plan.Fingerprint();
        if (emitted.insert(fp).second) {
          result.plans.push_back(
              {std::move(child.entries[0].plan), child.entries[0].score});
        }
        continue;
      }
      if (!visited.insert(child.Signature()).second) continue;
      beam.push_back(std::move(child));
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

  if (result.plans.empty()) {
    return Status::Internal("beam search found no complete plan for query " +
                            query.name());
  }
  std::sort(result.plans.begin(), result.plans.end(),
            [](const ScoredPlan& a, const ScoredPlan& b) {
              return a.predicted_ms < b.predicted_ms;
            });
  // One expansion can emit several complete plans; keep the k best.
  if (static_cast<int>(result.plans.size()) > options_.top_k) {
    result.plans.resize(static_cast<size_t>(options_.top_k));
  }
  auto end = std::chrono::steady_clock::now();
  result.planning_time_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return result;
}

}  // namespace balsa
