// Integration tests of the full Balsa loop on a down-scaled JOB-like
// environment. These are the slowest tests in the suite (seconds, not ms).
#include "src/balsa/agent.h"

#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "src/baselines/neo_impl.h"
#include "src/util/logging.h"
#include "src/harness/env.h"
#include "test_util.h"

namespace balsa {
namespace {

class AgentTest : public ::testing::Test {
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

  static BalsaAgentOptions FastOptions() {
    BalsaAgentOptions options;
    options.iterations = 3;
    options.sim.max_points_per_query = 150;
    options.sim_train.max_epochs = 6;
    options.real_train.max_epochs = 4;
    options.eval_test_every = 0;
    return options;
  }
};

TEST_F(AgentTest, SimulationBootstrapThenIterations) {
  Env& env = SharedEnv();
  BalsaAgent agent(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
                   env.estimator.get(), &env.workload, FastOptions());
  ASSERT_TRUE(agent.Train().ok());
  EXPECT_EQ(agent.iterations_run(), 3);
  EXPECT_EQ(agent.curve().size(), 3u);
  EXPECT_GT(agent.sim_stats().num_points, 0u);
  // Every training query executed every iteration.
  EXPECT_EQ(agent.experience().size(),
            3 * static_cast<int64_t>(env.workload.train_indices().size()));
  // Unique plans grow monotonically; virtual clock advances.
  EXPECT_GE(agent.curve()[2].unique_plans, agent.curve()[0].unique_plans);
  EXPECT_GT(agent.curve()[2].virtual_seconds,
            agent.curve()[0].virtual_seconds);
}

TEST_F(AgentTest, IterationZeroHasNoTimeoutThenTimeoutsApply) {
  Env& env = SharedEnv();
  BalsaAgent agent(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
                   env.estimator.get(), &env.workload, FastOptions());
  ASSERT_TRUE(agent.Bootstrap().ok());
  ASSERT_TRUE(agent.RunIteration().ok());
  EXPECT_LE(agent.curve()[0].timeout_ms, 0);  // iteration 0 untimed
  ASSERT_TRUE(agent.RunIteration().ok());
  EXPECT_GT(agent.curve()[1].timeout_ms, 0);
  // Timeout = slack x observed max runtime.
  EXPECT_DOUBLE_EQ(
      agent.curve()[1].timeout_ms,
      TimeoutPolicy::kSlack * agent.curve()[0].max_query_runtime_ms);
}

// The agent derives the search's epsilon collapse from the exploration
// mode alone: a caller-set value never survives under another mode.
TEST_F(AgentTest, EpsilonCollapseFollowsExplorationMode) {
  Env& env = SharedEnv();
  BalsaAgentOptions options = FastOptions();
  options.exploration = ExplorationMode::kCountBased;
  options.planner.epsilon_collapse = 0.5;
  BalsaAgent count_based(&env.schema(), env.pg_engine.get(),
                         env.cout_model.get(), env.estimator.get(),
                         &env.workload, options);
  EXPECT_EQ(count_based.options().planner.epsilon_collapse, 0.0);

  options.exploration = ExplorationMode::kEpsilonGreedy;
  BalsaAgent epsilon_greedy(&env.schema(), env.pg_engine.get(),
                            env.cout_model.get(), env.estimator.get(),
                            &env.workload, options);
  EXPECT_EQ(epsilon_greedy.options().planner.epsilon_collapse, 0.1);
}

TEST_F(AgentTest, PlanBestProducesValidEngineAcceptedPlans) {
  Env& env = SharedEnv();
  BalsaAgent agent(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
                   env.estimator.get(), &env.workload, FastOptions());
  ASSERT_TRUE(agent.Train().ok());
  for (const Query* q : env.workload.TestQueries()) {
    auto plan = agent.PlanBest(*q);
    ASSERT_TRUE(plan.ok()) << q->name();
    EXPECT_TRUE(plan->Validate());
    EXPECT_EQ(plan->RootTables(), q->AllTables());
    EXPECT_TRUE(env.pg_engine->AcceptsPlan(*plan));
  }
}

TEST_F(AgentTest, CommDbAgentPlansLeftDeepOnly) {
  Env& env = SharedEnv();
  BalsaAgentOptions options = FastOptions();
  options.iterations = 1;
  BalsaAgent agent(&env.schema(), env.commdb_engine.get(),
                   env.cout_model.get(), env.estimator.get(), &env.workload,
                   options);
  ASSERT_TRUE(agent.Train().ok());
  for (int i : {0, 5, 11}) {
    auto plan = agent.PlanBest(env.workload.query(i));
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(plan->IsLeftDeep());
  }
}

TEST_F(AgentTest, NeoImplConfigurationRuns) {
  Env& env = SharedEnv();
  BalsaAgentOptions options = NeoImplOptions(FastOptions());
  options.iterations = 2;
  BalsaAgent agent(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
                   env.estimator.get(), &env.workload, options,
                   env.pg_expert.get());
  ASSERT_TRUE(agent.Train().ok());
  // Expert demos appear in the buffer (iteration -1) plus 2 RL iterations.
  EXPECT_EQ(agent.experience().size(),
            3 * static_cast<int64_t>(env.workload.train_indices().size()));
  // Timeouts disabled: every iteration reports none.
  for (const IterationStats& s : agent.curve()) {
    EXPECT_LE(s.timeout_ms, 0);
  }
}

TEST_F(AgentTest, ExpertDemosRequireExpertOptimizer) {
  Env& env = SharedEnv();
  BalsaAgentOptions options = NeoImplOptions(FastOptions());
  BalsaAgent agent(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
                   env.estimator.get(), &env.workload, options,
                   /*expert_optimizer=*/nullptr);
  EXPECT_FALSE(agent.Bootstrap().ok());
}

TEST_F(AgentTest, DiversifiedExperienceRetraining) {
  Env& env = SharedEnv();
  BalsaAgentOptions options = FastOptions();
  options.iterations = 2;

  BalsaAgent a(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
               env.estimator.get(), &env.workload, options);
  BalsaAgentOptions options_b = options;
  options_b.seed = 1;
  BalsaAgent b(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
               env.estimator.get(), &env.workload, options_b);
  ASSERT_TRUE(a.Train().ok());
  ASSERT_TRUE(b.Train().ok());

  ExperienceBuffer merged;
  merged.Merge(a.experience());
  merged.Merge(b.experience());
  // Merging distinct agents' data yields more unique plans than either.
  EXPECT_GE(merged.NumUniquePlans(),
            std::max(a.experience().NumUniquePlans(),
                     b.experience().NumUniquePlans()));

  ASSERT_TRUE(a.RetrainFromExperience(merged).ok());
  auto runtime = a.EvaluateWorkload(env.workload.TrainQueries());
  ASSERT_TRUE(runtime.ok());
  EXPECT_GT(*runtime, 0);
}

TEST_F(AgentTest, DatasetEqualsPerNodeFeaturization) {
  // On agent-recorded plans, BuildDataset's points equal featurizing and
  // fingerprinting each subtree on its own.
  Env& env = SharedEnv();
  BalsaAgentOptions options = FastOptions();
  options.iterations = 1;
  BalsaAgent agent(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
                   env.estimator.get(), &env.workload, options);
  ASSERT_TRUE(agent.Train().ok());
  const ExperienceBuffer& experience = agent.experience();
  const Featurizer& featurizer = agent.featurizer();
  std::vector<TrainingPoint> want;
  for (const Execution& e : experience.executions()) {
    const Query& query = env.workload.query(e.query_id);
    for (int node = 0; node < e.plan.num_nodes(); ++node) {
      TrainingPoint pt;
      pt.query = featurizer.QueryFeatures(query);
      pt.plan = featurizer.PlanFeatures(query, e.plan, node);
      pt.label = experience.CorrectedLabel(
          e.query_id, e.plan.Fingerprint(node), e.label_ms);
      want.push_back(std::move(pt));
    }
  }
  std::vector<TrainingPoint> got =
      experience.BuildDataset(featurizer, env.workload);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_GT(got.size(), 0u);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(testing::SamePoint(got[i], want[i])) << "point " << i;
  }
}

TEST_F(AgentTest, RunIterationIsThreadCountInvariant) {
  // Planning fans out over num_threads, each thread scoring its own
  // frontiers; executions, training and the experience buffer stay in query
  // order. So the trained weights and every curve field but wall-clock
  // planning time must not depend on the thread count. Each run gets its
  // own Env: the engine's noise stream and plan cache are stateful.
  struct Run {
    std::vector<IterationStats> curve;
    std::string weights;
  };
  auto run = [](int threads) {
    EnvOptions env_options;
    env_options.data_scale = 0.05;
    auto env = MakeEnv(WorkloadKind::kJobRandomSplit, env_options);
    BALSA_CHECK(env.ok(), env.status().ToString());
    BalsaAgentOptions options = FastOptions();
    options.num_threads = threads;
    options.eval_test_every = 2;  // exercises parallel EvaluateWorkload
    BalsaAgent agent(&(*env)->schema(), (*env)->pg_engine.get(),
                     (*env)->cout_model.get(), (*env)->estimator.get(),
                     &(*env)->workload, options);
    BALSA_CHECK(agent.Bootstrap().ok(), "bootstrap");
    for (int i = 0; i < 3; ++i) {
      BALSA_CHECK(agent.RunIteration().ok(), "iteration");
    }
    const std::string path = ::testing::TempDir() + "/agent_threads_" +
                             std::to_string(threads) + ".bin";
    BALSA_CHECK(agent.value_network().Save(path).ok(), "save");
    std::ifstream in(path, std::ios::binary);
    Run result;
    result.curve = agent.curve();
    result.weights.assign(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
    return result;
  };
  const Run one = run(1);
  const Run four = run(4);
  ASSERT_FALSE(one.weights.empty());
  EXPECT_TRUE(one.weights == four.weights) << "saved networks differ";
  ASSERT_EQ(one.curve.size(), 3u);
  ASSERT_EQ(four.curve.size(), one.curve.size());
  for (size_t i = 0; i < one.curve.size(); ++i) {
    const IterationStats& a = one.curve[i];
    const IterationStats& b = four.curve[i];
    EXPECT_EQ(a.iteration, b.iteration) << "iteration " << i;
    EXPECT_EQ(a.virtual_seconds, b.virtual_seconds) << "iteration " << i;
    EXPECT_EQ(a.unique_plans, b.unique_plans) << "iteration " << i;
    EXPECT_EQ(a.executed_runtime_ms, b.executed_runtime_ms)
        << "iteration " << i;
    EXPECT_EQ(a.max_query_runtime_ms, b.max_query_runtime_ms)
        << "iteration " << i;
    EXPECT_EQ(a.timeout_ms, b.timeout_ms) << "iteration " << i;
    EXPECT_EQ(a.num_timeouts, b.num_timeouts) << "iteration " << i;
    EXPECT_EQ(a.test_runtime_ms, b.test_runtime_ms) << "iteration " << i;
    EXPECT_EQ(a.join_op_counts, b.join_op_counts) << "iteration " << i;
    EXPECT_EQ(a.scan_op_counts, b.scan_op_counts) << "iteration " << i;
    EXPECT_EQ(a.num_bushy_plans, b.num_bushy_plans) << "iteration " << i;
    EXPECT_EQ(a.num_left_deep_plans, b.num_left_deep_plans)
        << "iteration " << i;
    EXPECT_EQ(a.network_evals, b.network_evals) << "iteration " << i;
    EXPECT_EQ(a.inference_batches, b.inference_batches) << "iteration " << i;
  }
  // Iterations 0 and 2 evaluate the test set.
  EXPECT_GT(one.curve[0].test_runtime_ms, 0);
  EXPECT_GT(one.curve[2].test_runtime_ms, 0);
}

TEST_F(AgentTest, CannotIterateBeforeBootstrap) {
  Env& env = SharedEnv();
  BalsaAgent agent(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
                   env.estimator.get(), &env.workload, FastOptions());
  EXPECT_FALSE(agent.RunIteration().ok());
}

TEST_F(AgentTest, OperatorCompositionTracked) {
  Env& env = SharedEnv();
  BalsaAgentOptions options = FastOptions();
  options.iterations = 1;
  BalsaAgent agent(&env.schema(), env.pg_engine.get(), env.cout_model.get(),
                   env.estimator.get(), &env.workload, options);
  ASSERT_TRUE(agent.Train().ok());
  const IterationStats& s = agent.curve()[0];
  int total_joins = 0;
  for (int c : s.join_op_counts) total_joins += c;
  // 94 training queries with >= 2 joins each.
  EXPECT_GE(total_joins, 2 * 94);
  // Zig-zag/right-deep plans are neither bushy nor left-deep, so the two
  // counts bound but need not cover the query count.
  EXPECT_LE(s.num_bushy_plans + s.num_left_deep_plans,
            static_cast<int>(env.workload.train_indices().size()));
  EXPECT_GT(s.num_bushy_plans + s.num_left_deep_plans, 0);
}

}  // namespace
}  // namespace balsa
