#include "src/balsa/planner.h"

#include <set>

#include <gtest/gtest.h>

#include "src/baselines/random_planner.h"
#include "test_util.h"

namespace balsa {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
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
  }

  BeamSearchPlanner MakePlanner(PlannerOptions options = {}) {
    return BeamSearchPlanner(&fixture_.schema(), &featurizer_,
                             network_.get(), options);
  }

  testing::StarFixture fixture_;
  Query query_;
  Featurizer featurizer_;
  std::unique_ptr<ValueNetwork> network_;
};

TEST_F(PlannerTest, ReturnsKDistinctValidPlans) {
  PlannerOptions options;
  options.beam_size = 10;
  options.top_k = 5;
  auto result = MakePlanner(options).TopK(query_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plans.size(), 5u);
  std::set<uint64_t> fingerprints;
  for (const auto& scored : result->plans) {
    EXPECT_TRUE(scored.plan.Validate());
    EXPECT_EQ(scored.plan.RootTables(), query_.AllTables());
    fingerprints.insert(scored.plan.Fingerprint());
  }
  EXPECT_EQ(fingerprints.size(), 5u);  // distinct plans
  EXPECT_GT(result->network_evals, 0);
}

TEST_F(PlannerTest, PlansSortedByPredictedLatency) {
  auto result = MakePlanner().TopK(query_);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->plans.size(); ++i) {
    EXPECT_LE(result->plans[i - 1].predicted_ms,
              result->plans[i].predicted_ms);
  }
}

TEST_F(PlannerTest, LeftDeepModeProducesLeftDeepPlans) {
  PlannerOptions options;
  options.bushy = false;
  auto result = MakePlanner(options).TopK(query_);
  ASSERT_TRUE(result.ok());
  for (const auto& scored : result->plans) {
    EXPECT_TRUE(scored.plan.IsLeftDeep())
        << scored.plan.ToString(query_);
  }
}

TEST_F(PlannerTest, SingleRelationQueryShortCircuits) {
  QueryBuilder b(&fixture_.schema(), "one");
  auto q = b.From("customer", "c").Filter("c.region", PredOp::kEq, 1).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(5);
  auto result = MakePlanner().TopK(*q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->plans.size(), 1u);
  EXPECT_EQ(result->plans[0].plan.NumJoins(), 0);
}

TEST_F(PlannerTest, EpsilonCollapseRequiresRng) {
  PlannerOptions options;
  options.epsilon_collapse = 0.5;
  auto result = MakePlanner(options).TopK(query_, nullptr);
  EXPECT_FALSE(result.ok());
  Rng rng(1);
  auto with_rng = MakePlanner(options).TopK(query_, &rng);
  EXPECT_TRUE(with_rng.ok());
}

TEST_F(PlannerTest, GreedyBeamStillFindsPlans) {
  PlannerOptions options;
  options.beam_size = 1;  // degenerates into greedy search (§8.3.5)
  options.top_k = 1;
  auto result = MakePlanner(options).TopK(query_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plans.size(), 1u);
  EXPECT_TRUE(result->plans[0].plan.Validate());
}

class BeamParamTest
    : public PlannerTest,
      public ::testing::WithParamInterface<std::tuple<int, int>> {};

TEST_P(BeamParamTest, AllSettingsProduceCompletePlans) {
  auto [b, k] = GetParam();
  PlannerOptions options;
  options.beam_size = b;
  options.top_k = k;
  auto result = MakePlanner(options).TopK(query_);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(static_cast<int>(result->plans.size()), 1);
  EXPECT_LE(static_cast<int>(result->plans.size()), k);
  for (const auto& scored : result->plans) {
    EXPECT_EQ(scored.plan.RootTables(), query_.AllTables());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BeamParamTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(5, 1),
                      std::make_tuple(5, 5), std::make_tuple(10, 10),
                      std::make_tuple(20, 10)));

TEST_F(PlannerTest, GuidedByNetworkScores) {
  // Train the network to hate NL joins on full random plans (including
  // every subplan): the planner should then avoid them everywhere.
  RandomPlanner random(&fixture_.schema());
  std::vector<TrainingPoint> data;
  Rng rng(2);
  for (int i = 0; i < 150; ++i) {
    auto plan = random.Sample(query_, &rng);
    ASSERT_TRUE(plan.ok());
    std::vector<int> joins, scans;
    plan->CountOps(&joins, &scans);
    double label =
        10.0 + 5000.0 * joins[static_cast<int>(JoinOp::kNLJoin)];
    for (int node = 0; node < plan->num_nodes(); ++node) {
      TrainingPoint pt;
      pt.query = featurizer_.QueryFeatures(query_);
      pt.plan = featurizer_.PlanFeatures(query_, *plan, node);
      pt.label = label;
      data.push_back(std::move(pt));
    }
  }
  ValueNetwork::TrainOptions topts;
  topts.max_epochs = 60;
  topts.val_fraction = 0;
  topts.lr = 3e-3;
  network_->Train(data, topts);

  auto result = MakePlanner().TopK(query_);
  ASSERT_TRUE(result.ok());
  std::vector<int> joins, scans;
  result->plans[0].plan.CountOps(&joins, &scans);
  EXPECT_EQ(joins[static_cast<int>(JoinOp::kNLJoin)], 0);
}

}  // namespace
}  // namespace balsa
