// Differential tests of incremental beam-search scoring: the planner scores
// each new join root from its children's cached embeddings
// (ValueNetwork::ScoreRoots over a per-search subtree arena) instead of
// re-running the network over the whole plan. That must be a pure speedup:
//  - every incrementally scored subtree equals ForwardBatch over its full
//    PlanFeatures encoding, bit for bit;
//  - every cached child term equals a fresh TreeConvLayer::ChildTerm of the
//    child's columns, bit for bit, however the terms were batched;
//  - TopK returns the plans (node for node, in ComposeJoin's layout) and
//    predicted_ms of the per-plan Predict path (batch_scoring = false), for
//    left-deep and bushy search, computing each (subtree, side) child term
//    once;
//  - several planning threads sharing one read-only network (scoring
//    through one InferenceService, as the server's misses do) each get
//    the plans of a single-threaded TopK, bit for bit.
// Runs on the JOB-like workload over several data seeds.
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/balsa/planner.h"
#include "src/cost/cost_model.h"
#include "src/harness/env.h"
#include "src/runtime/inference_service.h"
#include "test_util.h"

namespace balsa {
namespace {

class IncrementalScoringTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    EnvOptions options;
    options.data_scale = 0.03;
    options.data_seed = GetParam();
    auto env = MakeEnv(WorkloadKind::kJobTrainAll, options);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(env).value();
    featurizer_ = std::make_unique<Featurizer>(&env_->schema(),
                                               env_->estimator.get());
    ValueNetConfig config;
    config.query_dim = featurizer_->query_dim();
    config.node_dim = featurizer_->node_dim();
    config.tree_hidden1 = 32;
    config.tree_hidden2 = 16;
    config.mlp_hidden = 16;
    config.init_seed = GetParam();
    network_ = std::make_unique<ValueNetwork>(config);
    // Every 6th query: all template sizes, from 3 to 17 relations.
    for (int i = 0; i < env_->workload.num_queries(); i += 6) {
      queries_.push_back(&env_->workload.query(i));
    }
  }

  PlannerOptions Options(bool bushy, bool batch_scoring) const {
    PlannerOptions options;
    options.beam_size = 10;
    options.top_k = 5;
    options.bushy = bushy;
    options.batch_scoring = batch_scoring;
    return options;
  }

  BeamSearchPlanner::PlanningResult Search(
      const Query& query, const PlannerOptions& options,
      InferenceService* service = nullptr) const {
    BeamSearchPlanner planner(&env_->schema(), featurizer_.get(),
                              network_.get(), options);
    planner.set_inference_service(service);
    auto result = planner.TopK(query);
    EXPECT_TRUE(result.ok()) << query.name() << ": "
                             << result.status().ToString();
    return result.ok() ? *std::move(result)
                       : BeamSearchPlanner::PlanningResult{};
  }

  static void ExpectSamePlans(const BeamSearchPlanner::PlanningResult& got,
                              const BeamSearchPlanner::PlanningResult& want,
                              const std::string& what) {
    ASSERT_EQ(got.plans.size(), want.plans.size()) << what;
    for (size_t i = 0; i < want.plans.size(); ++i) {
      const Plan& g = got.plans[i].plan;
      const Plan& w = want.plans[i].plan;
      EXPECT_EQ(g.Fingerprint(), w.Fingerprint())
          << what << " diverged at plan " << i;
      EXPECT_EQ(got.plans[i].predicted_ms, want.plans[i].predicted_ms)
          << what << " plan " << i;
      ExpectSameNodes(g, w, what + " plan " + std::to_string(i));
    }
  }

  // Node for node: the same arena layout, not only the same tree.
  static void ExpectSameNodes(const Plan& got, const Plan& want,
                              const std::string& what) {
    EXPECT_EQ(got.root(), want.root()) << what;
    ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
    for (int n = 0; n < want.num_nodes(); ++n) {
      const PlanNode& a = got.node(n);
      const PlanNode& b = want.node(n);
      EXPECT_TRUE(a.is_join == b.is_join && a.join_op == b.join_op &&
                  a.scan_op == b.scan_op && a.relation == b.relation &&
                  a.left == b.left && a.right == b.right &&
                  a.tables == b.tables)
          << what << " node " << n;
    }
  }

  // The subtree of `plan` at `idx` rebuilt bottom-up with ComposeJoin, the
  // way plans were built before subtrees were interned.
  static Plan Composed(const Plan& plan, int idx) {
    const PlanNode& n = plan.node(idx);
    if (!n.is_join) {
      Plan leaf;
      leaf.set_root(leaf.AddScan(n.relation, n.scan_op));
      return leaf;
    }
    return ComposeJoin(Composed(plan, n.left), Composed(plan, n.right),
                       n.join_op);
  }

  // Distinct (child fingerprint, side) pairs over the joins of `result`'s
  // plans: child terms the search must have computed.
  static std::set<std::pair<uint64_t, int>> PlanChildSides(
      const BeamSearchPlanner::PlanningResult& result) {
    std::set<std::pair<uint64_t, int>> pairs;
    for (const auto& scored : result.plans) {
      const Plan& plan = scored.plan;
      for (const PlanNode& node : plan.nodes()) {
        if (!node.is_join) continue;
        pairs.insert({plan.Fingerprint(node.left), 0});
        pairs.insert({plan.Fingerprint(node.right), 1});
      }
    }
    return pairs;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Featurizer> featurizer_;
  std::unique_ptr<ValueNetwork> network_;
  std::vector<const Query*> queries_;
};

TEST_P(IncrementalScoringTest, EverySubtreeScoreMatchesForwardBatch) {
  for (const Query* query : queries_) {
    const nn::Vec query_feat = featurizer_->QueryFeatures(*query);
    auto planned = Search(*query, Options(/*bushy=*/true, true));
    std::vector<nn::TreeSample> trees;
    for (const auto& scored : planned.plans) {
      const Plan& plan = scored.plan;
      trees.push_back(featurizer_->PlanFeatures(*query, plan));
      // The planner's own incremental score of the whole plan.
      EXPECT_EQ(scored.predicted_ms,
                network_->ForwardBatch(query_feat, {&trees.back()})[0])
          << query->name();
      for (int node = 0; node < plan.num_nodes(); ++node) {
        nn::TreeSample sub = featurizer_->PlanFeatures(*query, plan, node);
        EXPECT_EQ(testing::EmbedSubtree(*network_, *featurizer_, *query,
                                        query_feat, plan, node)
                      .score,
                  network_->ForwardBatch(query_feat, {&sub})[0])
            << query->name() << " node " << node;
      }
    }
  }
}

TEST_P(IncrementalScoringTest, BatchedRootJobsMatchForwardBatch) {
  // One ScoreRoots call mixing leaves and joins of several queries, each
  // job with its own query vector: every score must equal ForwardBatch
  // over that job's whole subtree.
  std::vector<nn::Vec> query_feats;
  query_feats.reserve(queries_.size());
  for (const Query* query : queries_) {
    query_feats.push_back(featurizer_->QueryFeatures(*query));
  }
  std::vector<nn::Vec> node_feats;
  std::vector<SubtreeEmbedding> children;
  std::vector<const nn::Vec*> want_queries;
  std::vector<nn::TreeSample> want_trees;
  struct Job {
    size_t query, node, left, right;  // left == right == npos: a leaf
  };
  constexpr size_t npos = static_cast<size_t>(-1);
  std::vector<Job> specs;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const Query& query = *queries_[q];
    auto planned = Search(query, Options(/*bushy=*/true, true));
    for (const auto& scored : planned.plans) {
      const Plan& plan = scored.plan;
      for (int idx = 0; idx < plan.num_nodes(); ++idx) {
        const PlanNode& node = plan.node(idx);
        Job spec{q, node_feats.size(), npos, npos};
        node_feats.push_back(featurizer_->NodeFeatures(query, node));
        if (node.is_join) {
          spec.left = children.size();
          children.push_back(testing::EmbedSubtree(
              *network_, *featurizer_, query, query_feats[q], plan,
              node.left));
          spec.right = children.size();
          children.push_back(testing::EmbedSubtree(
              *network_, *featurizer_, query, query_feats[q], plan,
              node.right));
        }
        specs.push_back(spec);
        want_queries.push_back(&query_feats[q]);
        want_trees.push_back(featurizer_->PlanFeatures(query, plan, idx));
      }
    }
  }
  std::vector<RootJob> jobs;
  std::vector<const nn::TreeSample*> tree_ptrs;
  for (size_t i = 0; i < specs.size(); ++i) {
    const Job& s = specs[i];
    jobs.push_back(RootJob{
        &query_feats[s.query], &node_feats[s.node],
        s.left == npos ? nullptr : &children[s.left],
        s.right == npos ? nullptr : &children[s.right]});
    tree_ptrs.push_back(&want_trees[i]);
  }
  ASSERT_FALSE(jobs.empty());
  std::vector<SubtreeEmbedding> got = network_->ScoreRoots(jobs);
  std::vector<double> want = network_->ForwardBatch(want_queries, tree_ptrs);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].score, want[i]) << "job " << i;
  }
}

TEST_P(IncrementalScoringTest, CachedChildTermsMatchFreshChildTerm) {
  // The network's tree-conv layers, rebuilt from its init seed:
  // ValueNetwork::InitWeights draws tc1 and then tc2 first.
  const ValueNetConfig& config = network_->config();
  Rng rng(config.init_seed);
  const nn::TreeConvLayer tc1(config.query_dim + config.node_dim,
                              config.tree_hidden1, &rng);
  const nn::TreeConvLayer tc2(config.tree_hidden1, config.tree_hidden2,
                              &rng);
  auto fresh = [&](const SubtreeEmbedding& child, int side) {
    auto column = [](const nn::Vec& v) {
      nn::Mat m(static_cast<int>(v.size()), 1);
      m.data = v;
      return m;
    };
    nn::Vec term = tc1.ChildTerm(side, column(child.input)).data;
    nn::Vec t2 = tc2.ChildTerm(side, column(child.h1)).data;
    term.insert(term.end(), t2.begin(), t2.end());
    return term;
  };

  // Every subtree of every planned plan, across queries, embedded alone
  // (EmbedSubtree fills both terms), then re-termed in one mixed batch of
  // both sides, the way a search batches the children of a frontier.
  std::vector<SubtreeEmbedding> subtrees;
  for (const Query* query : queries_) {
    const nn::Vec query_feat = featurizer_->QueryFeatures(*query);
    auto planned = Search(*query, Options(/*bushy=*/true, true));
    for (const auto& scored : planned.plans) {
      for (int node = 0; node < scored.plan.num_nodes(); ++node) {
        subtrees.push_back(testing::EmbedSubtree(
            *network_, *featurizer_, *query, query_feat, scored.plan, node));
      }
    }
  }
  ASSERT_FALSE(subtrees.empty());
  std::vector<SubtreeEmbedding> batched = subtrees;
  std::vector<TermJob> jobs;
  for (size_t i = 0; i < batched.size(); ++i) {
    for (int side : {0, 1}) {
      if ((i + static_cast<size_t>(side)) % 3 == 0) continue;  // ragged
      batched[i].terms[side].clear();
      jobs.push_back({&batched[i], side});
    }
  }
  network_->ChildTerms(jobs);
  for (size_t i = 0; i < subtrees.size(); ++i) {
    for (int side : {0, 1}) {
      const nn::Vec want = fresh(subtrees[i], side);
      EXPECT_EQ(subtrees[i].terms[side], want) << "subtree " << i;
      EXPECT_EQ(batched[i].terms[side], want) << "subtree " << i;
    }
  }
}

TEST_P(IncrementalScoringTest, TopKMatchesPerPlanPredict) {
  for (bool bushy : {false, true}) {
    for (const Query* query : queries_) {
      auto incremental = Search(*query, Options(bushy, true));
      auto reference = Search(*query, Options(bushy, false));
      const std::string what =
          query->name() + (bushy ? " bushy" : " left-deep");
      ExpectSamePlans(incremental, reference, what);
      for (const auto& scored : incremental.plans) {
        ExpectSameNodes(scored.plan, Composed(scored.plan, scored.plan.root()),
                        what + " vs ComposeJoin");
      }
      // Both modes score the same subtrees; only the call shape differs.
      EXPECT_EQ(incremental.network_evals, reference.network_evals) << what;
      EXPECT_EQ(incremental.scored_states, reference.scored_states) << what;
      // Each (subtree, side) term is computed once: every child a scored
      // join uses is itself scored, and has two sides at most.
      EXPECT_EQ(reference.child_terms, 0) << what;
      EXPECT_LE(incremental.child_terms, 2 * incremental.network_evals)
          << what;
      EXPECT_GE(incremental.child_terms,
                static_cast<int64_t>(PlanChildSides(incremental).size()))
          << what;
    }
  }
}

TEST(IncrementalScoringExactTest, ChildTermsCountDistinctSubtreeSides) {
  // A two-relation search makes one expansion that joins every scan
  // variant of each relation to every variant of the other, both ways, and
  // index-NL probes each inner through its index scan. Its child terms are
  // exactly the distinct (leaf, side) pairs those joins use.
  testing::StarFixture fixture = testing::MakeStarFixture();
  QueryBuilder builder(&fixture.schema(), "star2");
  auto built = builder.From("sales", "s")
                   .From("customer", "c")
                   .JoinEq("s.customer_id", "c.id")
                   .Filter("c.id", PredOp::kEq, 5)  // indexed: index scan
                   .Build();
  ASSERT_TRUE(built.ok());
  const Query& query = *built;
  Featurizer featurizer(&fixture.schema(), fixture.estimator.get());
  ValueNetConfig config;
  config.query_dim = featurizer.query_dim();
  config.node_dim = featurizer.node_dim();
  ValueNetwork network(config);
  BeamSearchPlanner planner(&fixture.schema(), &featurizer, &network,
                            PlannerOptions{});
  auto result = planner.TopK(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const Schema& schema = fixture.schema();
  auto variants = [&](int rel) {
    std::vector<uint64_t> fps{Plan::LeafFingerprint(rel, ScanOp::kSeqScan)};
    if (IndexScanEffective(schema, query, rel)) {
      fps.push_back(Plan::LeafFingerprint(rel, ScanOp::kIndexScan));
    }
    return fps;
  };
  std::set<std::pair<uint64_t, int>> want;
  for (auto [outer, inner] : {std::pair{0, 1}, std::pair{1, 0}}) {
    for (uint64_t fp : variants(outer)) want.insert({fp, 0});
    for (uint64_t fp : variants(inner)) want.insert({fp, 1});
    if (IndexNLValid(schema, query, TableSet::Single(outer), inner)) {
      want.insert({Plan::LeafFingerprint(inner, ScanOp::kIndexScan), 1});
    }
  }
  EXPECT_EQ(variants(1).size(), 2u);  // the filter makes c's index useful
  EXPECT_EQ(result->child_terms, static_cast<int64_t>(want.size()));
}

TEST_P(IncrementalScoringTest, ConcurrentPlannersMatchSingleThreadedTopK) {
  const PlannerOptions options = Options(/*bushy=*/true, true);
  std::vector<BeamSearchPlanner::PlanningResult> reference;
  for (const Query* query : queries_) {
    reference.push_back(Search(*query, options));
  }
  constexpr int kThreads = 4;
  InferenceService service(network_.get());
  std::vector<std::vector<BeamSearchPlanner::PlanningResult>> planned(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Threads walk the queries from different offsets, so concurrent
      // searches mix queries on the shared network.
      planned[t].resize(queries_.size());
      for (size_t k = 0; k < queries_.size(); ++k) {
        const size_t i = (k + static_cast<size_t>(t)) % queries_.size();
        planned[t][i] = Search(*queries_[i], options, &service);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t batch_calls = 0, network_evals = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      ExpectSamePlans(planned[t][i], reference[i],
                      queries_[i]->name() + " thread=" + std::to_string(t));
      batch_calls += planned[t][i].batch_calls;
      network_evals += planned[t][i].network_evals;
    }
  }
  EXPECT_EQ(service.stats().requests, batch_calls);
  EXPECT_EQ(service.stats().items, network_evals);
}

INSTANTIATE_TEST_SUITE_P(DataSeeds, IncrementalScoringTest,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

}  // namespace
}  // namespace balsa
