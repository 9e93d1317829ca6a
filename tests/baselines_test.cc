#include <gtest/gtest.h>
#include <set>

#include "src/baselines/bao_like.h"
#include "src/baselines/random_planner.h"
#include "src/harness/env.h"
#include "test_util.h"

namespace balsa {
namespace {

TEST(RandomPlannerTest, ProducesValidPlans) {
  auto fixture = testing::MakeStarFixture();
  Query query = testing::MakeStarQuery(fixture.schema());
  RandomPlanner planner(&fixture.schema());
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    auto plan = planner.Sample(query, &rng);
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(plan->Validate());
    EXPECT_EQ(plan->RootTables(), query.AllTables());
  }
}

TEST(RandomPlannerTest, CoversDiversePlans) {
  auto fixture = testing::MakeStarFixture();
  Query query = testing::MakeStarQuery(fixture.schema());
  RandomPlanner planner(&fixture.schema());
  Rng rng(2);
  std::set<uint64_t> fingerprints;
  for (int i = 0; i < 100; ++i) {
    auto plan = planner.Sample(query, &rng);
    ASSERT_TRUE(plan.ok());
    fingerprints.insert(plan->Fingerprint());
  }
  EXPECT_GT(fingerprints.size(), 30u);  // the space is explored broadly
}

class BaoTest : public ::testing::Test {
 protected:
  static Env& SharedEnv() {
    static Env* env = [] {
      EnvOptions options;
      options.data_scale = 0.05;
      auto result = MakeEnv(WorkloadKind::kJobRandomSplit, options);
      BALSA_CHECK(result.ok(), result.status().ToString());
      return result->release();
    }();
    return *env;
  }
};

TEST_F(BaoTest, ArmLatticeShape) {
  Env& env = SharedEnv();
  BaoOptions options;
  BaoAgent agent(&env.schema(), env.pg_engine.get(),
                 env.pg_expert_model.get(), env.estimator.get(),
                 &env.workload, options);
  // 15 join subsets x {bushy, left-deep} on the bushy-capable engine.
  EXPECT_EQ(agent.num_arms(), 30);

  BaoAgent commdb_agent(&env.schema(), env.commdb_engine.get(),
                        env.commdb_expert_model.get(), env.estimator.get(),
                        &env.workload, options);
  EXPECT_EQ(commdb_agent.num_arms(), 15);
}

TEST_F(BaoTest, TrainsAndPlans) {
  Env& env = SharedEnv();
  BaoOptions options;
  options.iterations = 2;
  options.train.max_epochs = 4;
  BaoAgent agent(&env.schema(), env.pg_engine.get(),
                 env.pg_expert_model.get(), env.estimator.get(),
                 &env.workload, options);
  ASSERT_TRUE(agent.Train().ok());
  for (int i : {0, 7}) {
    auto plan = agent.PlanBest(env.workload.query(i));
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(plan->Validate());
    EXPECT_TRUE(env.pg_engine->AcceptsPlan(*plan));
  }
  auto runtime = agent.EvaluateWorkload(env.workload.TestQueries());
  ASSERT_TRUE(runtime.ok());
  EXPECT_GT(*runtime, 0);
}

TEST_F(BaoTest, BootstrapRequiredBeforeIterations) {
  Env& env = SharedEnv();
  BaoAgent agent(&env.schema(), env.pg_engine.get(),
                 env.pg_expert_model.get(), env.estimator.get(),
                 &env.workload, BaoOptions());
  EXPECT_FALSE(agent.RunIteration().ok());
}

}  // namespace
}  // namespace balsa
