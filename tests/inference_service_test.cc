// Batched inference correctness: ValueNetwork::ForwardBatch must agree with
// per-item Predict, an item's score must be bitwise independent of its
// batch, the InferenceService must score root jobs with the scores Predict
// gives the whole plans (reading, never writing, the children), and
// service-driven beam search must produce exactly the plans the per-plan
// path produces. Concurrent planners sharing one network are tested in
// incremental_scoring_test.cc.
#include "src/runtime/inference_service.h"

#include <deque>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "reference_beam_search.h"
#include "src/balsa/planner.h"
#include "test_util.h"

namespace balsa {
namespace {

class InferenceServiceTest : public ::testing::Test {
 protected:
  InferenceServiceTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        featurizer_(&fixture_.schema(), fixture_.estimator.get()) {
    ValueNetConfig config;
    config.query_dim = featurizer_.query_dim();
    config.node_dim = featurizer_.node_dim();
    config.tree_hidden1 = 16;
    config.tree_hidden2 = 8;
    config.mlp_hidden = 8;
    config.init_seed = 11;
    network_ = std::make_unique<ValueNetwork>(config);
    query_feat_ = featurizer_.QueryFeatures(query_);
    query_term_ = testing::QueryTermOf(*network_, query_feat_);

    // Distinct left-deep plans: every permutation of the dimension joins
    // under every single join operator.
    const int perms[6][3] = {{1, 2, 3}, {1, 3, 2}, {2, 1, 3},
                             {2, 3, 1}, {3, 1, 2}, {3, 2, 1}};
    for (JoinOp op : {JoinOp::kHashJoin, JoinOp::kMergeJoin,
                      JoinOp::kNLJoin}) {
      for (const auto& perm : perms) {
        Plan plan;
        int root = plan.AddScan(0, ScanOp::kSeqScan);
        for (int rel : perm) {
          root = plan.AddJoin(root, plan.AddScan(rel, ScanOp::kSeqScan), op);
        }
        plan.set_root(root);
        trees_.push_back(featurizer_.PlanFeatures(query_, plan));
        AddRootJob(plan);
      }
    }
  }

  // The job that scores `plan`'s root join from its children's embeddings
  // and child terms (EmbedSubtree fills both sides), as beam search issues
  // it for a frontier plan.
  void AddRootJob(const Plan& plan) {
    const PlanNode& root = plan.node(plan.root());
    root_feats_.push_back(featurizer_.NodeFeatures(query_, root));
    for (int child : {root.left, root.right}) {
      child_embeddings_.push_back(testing::EmbedSubtree(
          *network_, featurizer_, query_, query_feat_, plan, child));
    }
    testing::Embedding& out = roots_.emplace_back();
    out.row.resize(static_cast<size_t>(network_->row_layout().stride));
    root_jobs_.push_back(RootJob{query_term_.data(), root_feats_.back().data(),
                                 child_embeddings_.end()[-2].row.data(),
                                 child_embeddings_.back().row.data(),
                                 out.row.data(), &out.score});
  }

  std::vector<const nn::TreeSample*> TreePtrs() const {
    std::vector<const nn::TreeSample*> ptrs;
    for (const nn::TreeSample& t : trees_) ptrs.push_back(&t);
    return ptrs;
  }

  testing::StarFixture fixture_;
  Query query_;
  Featurizer featurizer_;
  std::unique_ptr<ValueNetwork> network_;
  nn::Vec query_feat_;
  nn::Vec query_term_;
  std::vector<nn::TreeSample> trees_;
  // Deques: the jobs point into them.
  std::deque<nn::Vec> root_feats_;
  std::deque<testing::Embedding> child_embeddings_;
  std::deque<testing::Embedding> roots_;  // the jobs' outputs
  std::vector<RootJob> root_jobs_;  // root_jobs_[i] scores trees_[i]
};

TEST_F(InferenceServiceTest, ForwardBatchMatchesPredict) {
  std::vector<double> batched = network_->ForwardBatch(query_feat_,
                                                       TreePtrs());
  ASSERT_EQ(batched.size(), trees_.size());
  for (size_t i = 0; i < trees_.size(); ++i) {
    EXPECT_EQ(batched[i], network_->Predict(query_feat_, trees_[i]))
        << "plan " << i;
  }
}

TEST_F(InferenceServiceTest, ScoreIsIndependentOfBatchComposition) {
  // The batched kernels accumulate in MatVec's exact order, so an item's
  // score must be bitwise identical alone and inside any batch.
  std::vector<double> full = network_->ForwardBatch(query_feat_, TreePtrs());
  for (size_t i = 0; i < trees_.size(); ++i) {
    std::vector<double> solo =
        network_->ForwardBatch(query_feat_, {&trees_[i]});
    EXPECT_EQ(solo[0], full[i]) << "plan " << i;
  }
  // A shuffled sub-batch agrees element-for-element too.
  std::vector<const nn::TreeSample*> subset{&trees_[5], &trees_[0],
                                            &trees_[11]};
  std::vector<double> sub = network_->ForwardBatch(query_feat_, subset);
  EXPECT_EQ(sub[0], full[5]);
  EXPECT_EQ(sub[1], full[0]);
  EXPECT_EQ(sub[2], full[11]);
}

TEST_F(InferenceServiceTest, MixedQueryBatchMatchesPerItem) {
  // Per-item query vectors (the fused cross-client case).
  nn::Vec scoped_feat = featurizer_.QueryFeatures(
      query_, TableSet::Single(0).With(1));
  std::vector<const nn::Vec*> queries;
  std::vector<const nn::TreeSample*> plans;
  for (size_t i = 0; i < trees_.size(); ++i) {
    queries.push_back(i % 2 == 0 ? &query_feat_ : &scoped_feat);
    plans.push_back(&trees_[i]);
  }
  std::vector<double> batched = network_->ForwardBatch(queries, plans);
  for (size_t i = 0; i < trees_.size(); ++i) {
    EXPECT_EQ(batched[i], network_->Predict(*queries[i], trees_[i]));
  }
}

TEST_F(InferenceServiceTest, ServiceMatchesPredict) {
  InferenceService service(network_.get());
  // Scoring only reads the children's embeddings and terms.
  const std::deque<testing::Embedding> children_before = child_embeddings_;
  service.ScoreRoots(root_jobs_);
  ASSERT_EQ(roots_.size(), trees_.size());
  for (size_t i = 0; i < trees_.size(); ++i) {
    EXPECT_EQ(roots_[i].score, network_->Predict(query_feat_, trees_[i]))
        << "plan " << i;
  }
  for (size_t i = 0; i < child_embeddings_.size(); ++i) {
    const testing::Embedding& now = child_embeddings_[i];
    const testing::Embedding& before = children_before[i];
    EXPECT_TRUE(now.row == before.row && now.score == before.score)
        << "child " << i;
  }
  InferenceService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.items, static_cast<int64_t>(trees_.size()));
}

TEST(InferenceServiceDeathTest, RejectsWorkerThreads) {
  ValueNetConfig config;
  config.query_dim = 4;
  config.node_dim = 4;
  ValueNetwork network(config);
  InferenceServiceOptions options;
  options.num_workers = 1;
  EXPECT_DEATH({ InferenceService service(&network, options); },
               "num_workers must be 0");
}

TEST_F(InferenceServiceTest, BatchScoredBeamSearchFindsIdenticalPlans) {
  PlannerOptions options;
  options.beam_size = 10;
  options.top_k = 5;

  BeamSearchPlanner planner(&fixture_.schema(), &featurizer_, network_.get(),
                            options);
  auto a = planner.TopK(query_);
  // The frozen search that scores every subtree with a full Predict.
  auto b = reference::TopK(&fixture_.schema(), &featurizer_, network_.get(),
                           options, query_, nullptr);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a->plans.size(), b->plans.size());
  for (size_t i = 0; i < a->plans.size(); ++i) {
    EXPECT_EQ(a->plans[i].plan.Fingerprint(), b->plans[i].plan.Fingerprint())
        << "diverged at plan " << i;
    EXPECT_EQ(a->plans[i].predicted_ms, b->plans[i].predicted_ms);
  }
  // The two run the same forward passes; batching only fuses them.
  EXPECT_EQ(a->network_evals, b->network_evals);
  EXPECT_EQ(a->scored_states, b->scored_states);
  EXPECT_LT(a->batch_calls, a->network_evals);  // batched: fused frontiers
  EXPECT_GE(a->scored_states, a->network_evals);
}

TEST_F(InferenceServiceTest, PlannerThroughServiceFindsIdenticalPlans) {
  PlannerOptions options;
  options.beam_size = 10;
  options.top_k = 5;
  BeamSearchPlanner direct(&fixture_.schema(), &featurizer_, network_.get(),
                           options);
  auto baseline = direct.TopK(query_);
  ASSERT_TRUE(baseline.ok());

  InferenceService service(network_.get());
  BeamSearchPlanner routed(&fixture_.schema(), &featurizer_, network_.get(),
                           options);
  routed.set_inference_service(&service);
  auto via_service = routed.TopK(query_);
  ASSERT_TRUE(via_service.ok());

  ASSERT_EQ(via_service->plans.size(), baseline->plans.size());
  for (size_t i = 0; i < baseline->plans.size(); ++i) {
    EXPECT_EQ(via_service->plans[i].plan.Fingerprint(),
              baseline->plans[i].plan.Fingerprint());
    EXPECT_EQ(via_service->plans[i].predicted_ms,
              baseline->plans[i].predicted_ms);
  }
  // One service call per batched planner call, one item per network eval.
  EXPECT_EQ(service.stats().requests, via_service->batch_calls);
  EXPECT_EQ(service.stats().items, via_service->network_evals);
}

}  // namespace
}  // namespace balsa
