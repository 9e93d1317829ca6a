// Differential tests of incremental beam-search scoring: the planner scores
// each new join root from its children's cached embeddings
// (ValueNetwork::ScoreRoots over a per-search embedding table) instead of
// re-running the network over the whole plan. That must be a pure speedup:
//  - every incrementally scored subtree equals ForwardBatch over its full
//    PlanFeatures encoding, bit for bit;
//  - TopK returns the plans and predicted_ms of the per-plan Predict path
//    (batch_scoring = false), for left-deep and bushy search;
//  - the same holds when the root jobs go through an InferenceService with
//    0, 1 or 2 workers and several concurrent clients.
// Runs on the JOB-like workload over several data seeds.
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/balsa/planner.h"
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
      EXPECT_EQ(got.plans[i].plan.Fingerprint(),
                want.plans[i].plan.Fingerprint())
          << what << " diverged at plan " << i;
      EXPECT_EQ(got.plans[i].predicted_ms, want.plans[i].predicted_ms)
          << what << " plan " << i;
    }
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

TEST_P(IncrementalScoringTest, TopKMatchesPerPlanPredict) {
  for (bool bushy : {false, true}) {
    for (const Query* query : queries_) {
      auto incremental = Search(*query, Options(bushy, true));
      auto reference = Search(*query, Options(bushy, false));
      const std::string what =
          query->name() + (bushy ? " bushy" : " left-deep");
      ExpectSamePlans(incremental, reference, what);
      // Both modes score the same subtrees; only the call shape differs.
      EXPECT_EQ(incremental.network_evals, reference.network_evals) << what;
      EXPECT_EQ(incremental.scored_states, reference.scored_states) << what;
    }
  }
}

TEST_P(IncrementalScoringTest, ServiceMatchesPerPlanPredict) {
  std::vector<BeamSearchPlanner::PlanningResult> reference;
  for (const Query* query : queries_) {
    reference.push_back(Search(*query, Options(/*bushy=*/true, false)));
  }
  constexpr int kClients = 3;
  for (int workers : {0, 1, 2}) {
    InferenceServiceOptions service_options;
    service_options.num_workers = workers;
    service_options.max_batch_size = 64;  // some frontiers span chunks
    InferenceService service(network_.get(), service_options);
    std::vector<std::vector<BeamSearchPlanner::PlanningResult>> served(
        kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Clients walk the queries from different offsets, so concurrent
        // requests mix queries and fuse across them.
        served[c].resize(queries_.size());
        for (size_t k = 0; k < queries_.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(c)) % queries_.size();
          served[c][i] =
              Search(*queries_[i], Options(/*bushy=*/true, true), &service);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < queries_.size(); ++i) {
        ExpectSamePlans(served[c][i], reference[i],
                        queries_[i]->name() + " workers=" +
                            std::to_string(workers) + " client=" +
                            std::to_string(c));
      }
    }
    EXPECT_GT(service.stats().items, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(DataSeeds, IncrementalScoringTest,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

}  // namespace
}  // namespace balsa
