#include "src/balsa/simulation.h"

#include <gtest/gtest.h>

#include <string>

#include "src/optimizer/dp_optimizer.h"
#include "test_util.h"

namespace balsa {
namespace {

class SimulationTest : public ::testing::Test {
 protected:
  SimulationTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        featurizer_(&fixture_.schema(), fixture_.estimator.get()),
        cout_(fixture_.estimator, &fixture_.schema()) {}

  testing::StarFixture fixture_;
  Query query_;
  Featurizer featurizer_;
  CoutCostModel cout_;
};

TEST_F(SimulationTest, CollectsAugmentedPoints) {
  SimulationOptions options;
  options.max_points_per_query = 0;  // unlimited
  SimulationStats stats;
  auto data = CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                    featurizer_, options, &stats);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_GT(data->size(), 0u);
  EXPECT_EQ(stats.num_points, data->size());
  EXPECT_EQ(stats.num_queries_used, 1);
  // Augmentation multiplies enumerated plans into more points.
  EXPECT_GT(stats.num_points, stats.num_enumerated_plans);
  for (const TrainingPoint& pt : *data) {
    EXPECT_GT(pt.label, 0);
    EXPECT_EQ(pt.query.size(), static_cast<size_t>(featurizer_.query_dim()));
  }
}

TEST_F(SimulationTest, PointsEqualPerNodeFeaturization) {
  // Every point equals what featurizing its subtree alone gives: the
  // enumerated plans, each subtree through PlanFeatures, in order.
  for (bool canonical : {true, false}) {
    SimulationOptions options;
    options.max_points_per_query = 0;
    options.canonical_operators_only = canonical;
    options.num_threads = 1;
    auto data = CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                      featurizer_, options);
    ASSERT_TRUE(data.ok());

    DpOptimizerOptions dp_options;
    if (canonical) {
      dp_options.enable_merge_join = false;
      dp_options.enable_nl_join = false;
      dp_options.enable_index_nl = false;
    }
    DpOptimizer enumerator(&fixture_.schema(), &cout_, dp_options);
    std::vector<TrainingPoint> want;
    ASSERT_TRUE(enumerator
                    .EnumerateAll(query_,
                                  [&](const Query& q, TableSet scope,
                                      const Plan& plan, double cost) {
                                    for (int node = 0;
                                         node < plan.num_nodes(); ++node) {
                                      TrainingPoint pt;
                                      pt.query =
                                          featurizer_.QueryFeatures(q, scope);
                                      pt.plan = featurizer_.PlanFeatures(
                                          q, plan, node);
                                      pt.label = cost;
                                      want.push_back(std::move(pt));
                                    }
                                  })
                    .ok());
    ASSERT_EQ(data->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(testing::SamePoint((*data)[i], want[i])) << "point " << i;
    }
  }
}

TEST_F(SimulationTest, ReservoirCapsPerQuery) {
  SimulationOptions options;
  options.max_points_per_query = 50;
  auto data = CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                    featurizer_, options);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 50u);
}

// A chain of `n` aliases of customer, each joined to the next on id.
Query CustomerChain(const Schema& schema, int n) {
  QueryBuilder builder(&schema, "chain" + std::to_string(n));
  for (int r = 0; r < n; ++r) builder.From("customer", "c" + std::to_string(r));
  for (int r = 1; r < n; ++r) {
    builder.JoinEq("c" + std::to_string(r - 1) + ".id",
                   "c" + std::to_string(r) + ".id");
  }
  auto query = builder.Build();
  BALSA_CHECK(query.ok(), "chain query");
  return std::move(query).value();
}

TEST_F(SimulationTest, SkipsQueriesOfTwelveOrMoreRelations) {
  const Query chain11 = CustomerChain(fixture_.schema(), 11);
  const Query chain12 = CustomerChain(fixture_.schema(), 12);
  SimulationOptions options;
  options.max_points_per_query = 0;
  SimulationStats stats;
  auto data = CollectSimulationData({&chain12, &query_}, fixture_.schema(),
                                    cout_, featurizer_, options, &stats);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(stats.num_queries_skipped, 1);
  EXPECT_EQ(stats.num_queries_used, 1);
  auto star_only = CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                         featurizer_, options);
  ASSERT_TRUE(star_only.ok());
  EXPECT_EQ(data->size(), star_only->size());

  // Eleven relations are planned.
  auto eleven = CollectSimulationData({&chain11}, fixture_.schema(), cout_,
                                      featurizer_, options, &stats);
  ASSERT_TRUE(eleven.ok());
  EXPECT_EQ(stats.num_queries_skipped, 0);
  EXPECT_EQ(stats.num_queries_used, 1);
  EXPECT_FALSE(eleven->empty());
}

TEST_F(SimulationTest, CanonicalOperatorsReduceEnumeration) {
  SimulationOptions canonical;
  canonical.max_points_per_query = 0;
  SimulationStats stats_canonical;
  ASSERT_TRUE(CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                    featurizer_, canonical, &stats_canonical)
                  .ok());
  SimulationOptions physical = canonical;
  physical.canonical_operators_only = false;
  SimulationStats stats_physical;
  ASSERT_TRUE(CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                    featurizer_, physical, &stats_physical)
                  .ok());
  EXPECT_LT(stats_canonical.num_enumerated_plans,
            stats_physical.num_enumerated_plans);
}

TEST_F(SimulationTest, ScopedQueryFeaturesRestrictTables) {
  SimulationOptions options;
  options.max_points_per_query = 0;
  auto data = CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                    featurizer_, options);
  ASSERT_TRUE(data.ok());
  // Some points must have scoped (partial) query features: at least one
  // table slot zero while others are set.
  bool found_scoped = false;
  for (const TrainingPoint& pt : *data) {
    int nonzero = 0;
    for (float v : pt.query) nonzero += v != 0.f;
    if (nonzero > 0 && nonzero < 4) found_scoped = true;
  }
  EXPECT_TRUE(found_scoped);
}

TEST_F(SimulationTest, DeterministicForSeed) {
  SimulationOptions options;
  options.max_points_per_query = 100;
  options.seed = 9;
  auto a = CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                 featurizer_, options);
  auto b = CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                 featurizer_, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].label, (*b)[i].label);
  }
}

}  // namespace
}  // namespace balsa
