// Beam search's per-thread workspace. TopK keeps every per-search buffer
// (subtree arena, embedding rows, open-addressing tables, frontier, beam id
// pool) in one thread_local workspace that it clears on entry and trims on
// exit. That must change nothing but allocations:
//  - a frozen copy of the search as it was before the workspace, scoring
//    every subtree with a full Predict (reference_beam_search.h), finds the
//    same plans node for node with the same predicted_ms bits and the same
//    counters;
//  - after one warm-up pass on a thread, a JOB search allocates only its
//    result: one arena per returned plan, the plan vector and the query's
//    feature vector;
//  - a search far larger than JOB frees what it grew past the retained
//    size, so it does not pin memory on its thread;
//  - fresh memory reads as NaN (see operator new below), so the
//    differential test also shows a row read before it is written.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_beam_search.h"
#include "src/balsa/planner.h"
#include "src/harness/env.h"
#include "src/runtime/inference_service.h"
#include "test_util.h"

// Every heap allocation in this binary is counted, so a test can pin how
// many a call makes, and filled with 0xFF bytes, which read as NaN floats:
// the search's embedding rows and node features start unwritten, so a part
// of one read before it is written turns a score into NaN and shows up in
// the differential test. The replacements stay out of line: inlined, gcc
// would pair a caller's `new` with the `free` inside `delete` and warn.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    std::memset(p, 0xFF, size);
    return p;
  }
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
  // 36 aliases of one table, each joined to the next eight: a search that
  // interns several times the subtrees of any JOB query's and grows the
  // workspace to about twice the retained size.
  const int table = env_->workload.query(0).relations()[0].table_idx;
  ASSERT_GE(env_->schema().table(table).columns.size(), 2u);
  std::vector<QueryRelation> relations;
  std::vector<JoinPredicate> joins;
  for (int r = 0; r < 36; ++r) {
    relations.push_back({table, "r" + std::to_string(r)});
    for (int d = 1; d <= 8 && d <= r; ++d) {
      joins.push_back({{r - d, 0}, {r, 1}});
    }
  }
  const Query wide("wide36", std::move(relations), std::move(joins), {});

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
