// Batched inference correctness: ValueNetwork::ForwardBatch must agree with
// per-item Predict, an item's score must be bitwise independent of its
// batch, the micro-batching InferenceService must serve root jobs with the
// scores ForwardBatch gives the whole plans, under concurrent clients too,
// and service-driven beam search must produce exactly the plans the
// per-plan path produces.
#include "src/runtime/inference_service.h"

#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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
    root_jobs_.push_back(RootJob{&query_feat_, &root_feats_.back(),
                                 &child_embeddings_.end()[-2],
                                 &child_embeddings_.back()});
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
  std::vector<nn::TreeSample> trees_;
  // Deques: the jobs point into them.
  std::deque<nn::Vec> root_feats_;
  std::deque<SubtreeEmbedding> child_embeddings_;
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

TEST_F(InferenceServiceTest, ServiceMatchesDirectForwardBatch) {
  std::vector<double> direct = network_->ForwardBatch(query_feat_,
                                                      TreePtrs());
  for (int workers : {0, 1, 2}) {  // 0 = synchronous mode
    InferenceServiceOptions options;
    options.num_workers = workers;
    InferenceService service(network_.get(), options);
    std::vector<SubtreeEmbedding> served = service.ScoreRoots(root_jobs_);
    ASSERT_EQ(served.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(served[i].score, direct[i]) << "workers=" << workers;
    }
  }
}

TEST_F(InferenceServiceTest, ServiceChunksOversizedRequests) {
  InferenceServiceOptions options;
  options.max_batch_size = 4;
  options.num_workers = 1;
  InferenceService service(network_.get(), options);
  std::vector<SubtreeEmbedding> served = service.ScoreRoots(root_jobs_);
  std::vector<double> direct = network_->ForwardBatch(query_feat_,
                                                      TreePtrs());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(served[i].score, direct[i]);
  }
  InferenceService::Stats stats = service.stats();
  EXPECT_EQ(stats.items, static_cast<int64_t>(trees_.size()));
  EXPECT_GE(stats.forward_batches,
            static_cast<int64_t>((trees_.size() + 3) / 4));
  EXPECT_LE(stats.max_fused_items, 4);
}

TEST_F(InferenceServiceTest, ConcurrentClientsGetCorrectScores) {
  InferenceServiceOptions options;
  options.num_workers = 2;
  InferenceService service(network_.get(), options);
  std::vector<double> direct = network_->ForwardBatch(query_feat_,
                                                      TreePtrs());

  // Every client's jobs point at the same child embeddings: scoring only
  // reads them, so they stay as they were.
  const std::deque<SubtreeEmbedding> children_before = child_embeddings_;
  constexpr int kClients = 8;
  std::vector<std::vector<SubtreeEmbedding>> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        results[c] = service.ScoreRoots(root_jobs_);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(results[c].size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      // Fusion across clients must never perturb a score.
      EXPECT_EQ(results[c][i].score, direct[i]) << "client " << c;
    }
  }
  for (size_t i = 0; i < child_embeddings_.size(); ++i) {
    const SubtreeEmbedding& now = child_embeddings_[i];
    const SubtreeEmbedding& before = children_before[i];
    EXPECT_TRUE(now.input == before.input && now.h1 == before.h1 &&
                now.pooled == before.pooled &&
                now.terms[0] == before.terms[0] &&
                now.terms[1] == before.terms[1] && now.score == before.score)
        << "child " << i;
  }
  InferenceService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, kClients * 5);
  EXPECT_EQ(stats.items,
            static_cast<int64_t>(kClients * 5 * trees_.size()));
}

TEST_F(InferenceServiceTest, BatchScoredBeamSearchFindsIdenticalPlans) {
  PlannerOptions batched;
  batched.beam_size = 10;
  batched.top_k = 5;
  batched.batch_scoring = true;
  PlannerOptions per_plan = batched;
  per_plan.batch_scoring = false;

  BeamSearchPlanner batch_planner(&fixture_.schema(), &featurizer_,
                                  network_.get(), batched);
  BeamSearchPlanner per_plan_planner(&fixture_.schema(), &featurizer_,
                                     network_.get(), per_plan);
  auto a = batch_planner.TopK(query_);
  auto b = per_plan_planner.TopK(query_);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a->plans.size(), b->plans.size());
  for (size_t i = 0; i < a->plans.size(); ++i) {
    EXPECT_EQ(a->plans[i].plan.Fingerprint(), b->plans[i].plan.Fingerprint())
        << "diverged at plan " << i;
    EXPECT_EQ(a->plans[i].predicted_ms, b->plans[i].predicted_ms);
  }
  // The two modes run the same forward passes; batching only fuses them.
  EXPECT_EQ(a->network_evals, b->network_evals);
  EXPECT_EQ(a->scored_states, b->scored_states);
  EXPECT_EQ(b->batch_calls, b->network_evals);  // per-plan: one call each
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

  InferenceServiceOptions service_options;
  service_options.num_workers = 2;
  InferenceService service(network_.get(), service_options);
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
  EXPECT_GT(service.stats().forward_batches, 0);
}

}  // namespace
}  // namespace balsa
