// Beam search's per-thread workspace. TopK keeps every per-search buffer
// (subtree arena, embedding rows, open-addressing tables, frontier, beam id
// pool) in one thread_local workspace that it clears on entry and trims on
// exit. That must change nothing but allocations:
//  - a frozen copy of the search as it was before the workspace, scoring
//    every subtree with a full Predict, finds the same plans node for node
//    with the same predicted_ms bits and the same counters;
//  - after one warm-up pass on a thread, a JOB search allocates only its
//    result: one arena per returned plan, the plan vector and the query's
//    feature vector;
//  - a search far larger than JOB frees what it grew past the retained
//    size, so it does not pin memory on its thread.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/balsa/planner.h"
#include "src/cost/cost_model.h"
#include "src/harness/env.h"
#include "src/runtime/inference_service.h"
#include "test_util.h"

// Every heap allocation in this binary is counted, so a test can pin how
// many a call makes. The replacements stay out of line: inlined, gcc would
// pair a caller's `new` with the `free` inside `delete` and warn.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace balsa {
namespace {

/// Allocations `fn` makes.
template <typename Fn>
int64_t AllocationsOf(Fn fn) {
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// A frozen copy of BeamSearchPlanner::TopK as it was before the workspace:
// a fresh arena of node-based containers per search, a std::vector of ids
// per state. Every subtree is scored by a full Predict over its plan, while
// the batched mode's counters (one batch call per scoring round, one child
// term per distinct (subtree, side) a scored join uses) are kept as that
// mode kept them.
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

uint64_t Signature(std::vector<uint64_t>* fps) {
  std::sort(fps->begin(), fps->end());
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (uint64_t fp : *fps) {
    h ^= fp + 0xBF58476D1CE4E5B9ULL + (h << 6) + (h >> 2);
  }
  return h;
}

StatusOr<BeamSearchPlanner::PlanningResult> TopK(
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

  State root;
  for (int rel = 0; rel < num_rels; ++rel) {
    root.ids.push_back(leaf_variants[rel][0]);
    root.score = std::max(root.score, arena.at(root.ids.back()).score);
  }
  if (num_rels == 1) {
    result.plans.push_back({arena.ToPlan(root.ids[0]), root.score});
    return result;
  }

  std::vector<JoinOp> join_ops;
  if (options_.enable_hash_join) join_ops.push_back(JoinOp::kHashJoin);
  if (options_.enable_merge_join) join_ops.push_back(JoinOp::kMergeJoin);
  if (options_.enable_nl_join) join_ops.push_back(JoinOp::kNLJoin);

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
         expansions < options_.max_expansions) {
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
        if (options_.enable_index_nl_join && right_is_leaf &&
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

void ExpectSameResult(const BeamSearchPlanner::PlanningResult& got,
                      const BeamSearchPlanner::PlanningResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.network_evals, want.network_evals) << what;
  EXPECT_EQ(got.scored_states, want.scored_states) << what;
  EXPECT_EQ(got.batch_calls, want.batch_calls) << what;
  EXPECT_EQ(got.child_terms, want.child_terms) << what;
  ASSERT_EQ(got.plans.size(), want.plans.size()) << what;
  for (size_t i = 0; i < want.plans.size(); ++i) {
    const Plan& g = got.plans[i].plan;
    const Plan& w = want.plans[i].plan;
    EXPECT_EQ(Bits(got.plans[i].predicted_ms), Bits(want.plans[i].predicted_ms))
        << what << " plan " << i;
    EXPECT_EQ(g.root(), w.root()) << what << " plan " << i;
    ASSERT_EQ(g.num_nodes(), w.num_nodes()) << what << " plan " << i;
    for (int n = 0; n < w.num_nodes(); ++n) {
      const PlanNode& a = g.node(n);
      const PlanNode& b = w.node(n);
      EXPECT_TRUE(a.is_join == b.is_join && a.join_op == b.join_op &&
                  a.scan_op == b.scan_op && a.relation == b.relation &&
                  a.left == b.left && a.right == b.right &&
                  a.tables == b.tables)
          << what << " plan " << i << " node " << n;
    }
  }
}

std::unique_ptr<Env> JobEnv(uint64_t data_seed) {
  EnvOptions options;
  options.data_scale = 0.03;
  options.data_seed = data_seed;
  auto env = MakeEnv(WorkloadKind::kJobTrainAll, options);
  BALSA_CHECK(env.ok(), env.status().ToString());
  return std::move(env).value();
}

ValueNetConfig NetConfig(const Featurizer& featurizer, int h1, int h2,
                         int mlp, uint64_t seed) {
  ValueNetConfig config;
  config.query_dim = featurizer.query_dim();
  config.node_dim = featurizer.node_dim();
  config.tree_hidden1 = h1;
  config.tree_hidden2 = h2;
  config.mlp_hidden = mlp;
  config.init_seed = seed;
  return config;
}

// serve_miss's search shape.
PlannerOptions ServeMissOptions() {
  PlannerOptions options;
  options.beam_size = 10;
  options.top_k = 5;
  return options;
}

class WorkspaceDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkspaceDifferentialTest, MatchesTheFrozenSearchBitForBit) {
  const uint64_t seed = GetParam();
  std::unique_ptr<Env> env = JobEnv(seed);
  Featurizer featurizer(&env->schema(), env->estimator.get());
  const ValueNetwork small(NetConfig(featurizer, 32, 16, 16, seed));
  const ValueNetwork large(NetConfig(featurizer, 64, 32, 32, seed));
  int searches = 0;
  for (const ValueNetwork* network : {&small, &large}) {
    for (bool bushy : {true, false}) {
      for (double epsilon : {0.0, 0.3}) {
        PlannerOptions options = ServeMissOptions();
        options.bushy = bushy;
        options.epsilon_collapse = epsilon;
        BeamSearchPlanner planner(&env->schema(), &featurizer, network,
                                  options);
        for (const Query& query : env->workload.queries()) {
          const std::string what =
              query.name() + " h1=" +
              std::to_string(network->config().tree_hidden1) +
              (bushy ? " bushy" : " left-deep") +
              " epsilon=" + std::to_string(epsilon);
          Rng got_rng(seed + 100), want_rng(seed + 100);
          auto got = planner.TopK(query, &got_rng);
          auto want = reference::TopK(&env->schema(), &featurizer, network,
                                      options, query, &want_rng);
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
          ExpectSameResult(*got, *want, what);
          // Both searches drew the same random numbers.
          EXPECT_EQ(got_rng.Uniform(1u << 30), want_rng.Uniform(1u << 30))
              << what;
          ++searches;
        }
      }
    }
  }
  EXPECT_EQ(searches, 8 * env->workload.num_queries());
}

INSTANTIATE_TEST_SUITE_P(DataSeeds, WorkspaceDifferentialTest,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

class WorkspaceAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = JobEnv(1);
    featurizer_ = std::make_unique<Featurizer>(&env_->schema(),
                                               env_->estimator.get());
    network_ = std::make_unique<ValueNetwork>(
        NetConfig(*featurizer_, 32, 16, 16, 1));
    for (const Query& query : env_->workload.queries()) {
      if (query.num_relations() <= 10) queries_.push_back(&query);
    }
    ASSERT_GT(queries_.size(), 10u);
  }

  BeamSearchPlanner Planner() const {
    return BeamSearchPlanner(&env_->schema(), featurizer_.get(),
                             network_.get(), ServeMissOptions());
  }

  // Plans `query`; returns the allocations TopK made beyond its result's
  // plan arenas.
  static int64_t ExtraAllocations(const BeamSearchPlanner& planner,
                                  const Query& query) {
    StatusOr<BeamSearchPlanner::PlanningResult> result =
        Status::Internal("not planned");
    const int64_t allocations =
        AllocationsOf([&] { result = planner.TopK(query); });
    EXPECT_TRUE(result.ok()) << query.name();
    return result.ok()
               ? allocations - static_cast<int64_t>(result->plans.size())
               : allocations;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Featurizer> featurizer_;
  std::unique_ptr<ValueNetwork> network_;
  std::vector<const Query*> queries_;
};

TEST_F(WorkspaceAllocationTest, AWarmSearchAllocatesOnlyItsResult) {
  BeamSearchPlanner direct = Planner();
  InferenceService service(network_.get());
  BeamSearchPlanner routed = Planner();
  routed.set_inference_service(&service);
  // One pass grows this thread's workspace to the workload's largest
  // searches.
  for (const Query* query : queries_) {
    ASSERT_TRUE(direct.TopK(*query).ok());
    ASSERT_TRUE(routed.TopK(*query).ok());
  }
  // Beyond one arena per plan: the plan vector and the query's features.
  for (const Query* query : queries_) {
    EXPECT_LE(ExtraAllocations(direct, *query), 2) << query->name();
    EXPECT_LE(ExtraAllocations(routed, *query), 2) << query->name();
  }
}

TEST_F(WorkspaceAllocationTest, AnOversizedSearchDoesNotPinItsWorkspace) {
  // 30 aliases of one table, each joined to the next six: a search that
  // interns several times the subtrees of any JOB query's.
  const int table = env_->workload.query(0).relations()[0].table_idx;
  ASSERT_GE(env_->schema().table(table).columns.size(), 2u);
  std::vector<QueryRelation> relations;
  std::vector<JoinPredicate> joins;
  for (int r = 0; r < 30; ++r) {
    relations.push_back({table, "r" + std::to_string(r)});
    for (int d = 1; d <= 6 && d <= r; ++d) {
      joins.push_back({{r - d, 0}, {r, 1}});
    }
  }
  const Query wide("wide30", std::move(relations), std::move(joins), {});

  BeamSearchPlanner planner = Planner();
  for (const Query* query : queries_) ASSERT_TRUE(planner.TopK(*query).ok());
  const Query& query = *queries_.front();
  ASSERT_LE(ExtraAllocations(planner, query), 2);

  // The wide search grows the workspace past what a thread keeps, so it
  // frees it, and the next JOB search regrows every buffer once.
  auto big = planner.TopK(wide);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_GT(big->network_evals, 2000);
  EXPECT_GT(ExtraAllocations(planner, query), 20);
  EXPECT_LE(ExtraAllocations(planner, query), 2);
}

}  // namespace
}  // namespace balsa
