// The Balsa agent (§2-§6): bootstraps a value network from a simulator (or
// from expert demonstrations, for the Neo-style baseline, §8.4), then
// fine-tunes it by iterations of planning, safe execution with timeouts,
// safe count-based exploration, and on-policy updates with best-latency
// label correction. Tracks a learning curve on a virtual clock so the
// paper's wall-clock figures are reproduced deterministically.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/balsa/experience.h"
#include "src/balsa/planner.h"
#include "src/balsa/simulation.h"
#include "src/balsa/timeout_policy.h"
#include "src/cost/cost_model.h"
#include "src/engine/execution_engine.h"
#include "src/model/featurizer.h"
#include "src/model/value_network.h"
#include "src/optimizer/dp_optimizer.h"
#include "src/runtime/inference_service.h"
#include "src/util/thread_pool.h"
#include "src/workloads/workload.h"

namespace balsa {

/// How the agent acquires its initial value network (§8.3.1, §8.4).
enum class BootstrapMode {
  kNone,        // random initialization ("No sim" ablation)
  kSimulation,  // train V_sim on cost-model data (Balsa's default)
  kExpertDemos, // execute the expert optimizer's plans (Neo-style)
};

/// How V_real is updated each iteration (§8.3.4).
enum class TrainScheme {
  kOnPolicy,  // SGD on the latest iteration's data (Balsa's default)
  kRetrain,   // re-initialize and retrain on the entire experience (Neo)
};

/// Exploration strategy during training (§5, §8.3.3).
enum class ExplorationMode {
  kNone,           // always execute the predicted-best plan
  kCountBased,     // best unseen plan of the top-k (Balsa's default)
  kEpsilonGreedy,  // epsilon = 0.1 beam collapse inside the search
};

struct BalsaAgentOptions {
  BootstrapMode bootstrap = BootstrapMode::kSimulation;
  TrainScheme train_scheme = TrainScheme::kOnPolicy;
  ExplorationMode exploration = ExplorationMode::kCountBased;

  /// b = 20, k = 10 (§4.2). The agent sets epsilon_collapse from
  /// `exploration`: 0.1 under kEpsilonGreedy, else 0.
  PlannerOptions planner;
  SimulationOptions sim;
  TimeoutPolicy::Options timeout;

  ValueNetConfig net;  // query/node dims are filled in by the agent
  ValueNetwork::TrainOptions sim_train{.max_epochs = 40, .patience = 3};
  ValueNetwork::TrainOptions real_train{.max_epochs = 12, .patience = 2};

  /// Number of execute/update iterations after bootstrapping.
  int iterations = 100;
  /// Parallel execution VMs modeled by the virtual clock (§7).
  int num_workers = 2;
  /// Real threads for planning and simulation data collection
  /// (0 = hardware concurrency). Distinct from num_workers, which is the
  /// virtual-clock accounting model; results are identical for any thread
  /// count — tasks merge in deterministic (query) order, and every planning
  /// thread scores its own frontiers on the shared read-only network.
  int num_threads = 0;
  /// The scoring shell's options (num_workers must stay 0).
  InferenceServiceOptions inference;
  /// Evaluate the held-out test set every this many iterations (0 = never;
  /// evaluations are noiseless and do not advance the virtual clock).
  int eval_test_every = 5;

  uint64_t seed = 0;
};

/// Per-iteration record for learning curves (Figures 7-18).
struct IterationStats {
  int iteration = 0;
  /// Cumulative virtual seconds (execution makespan + update time).
  double virtual_seconds = 0;
  int64_t unique_plans = 0;
  /// Sum over training queries of this iteration's executed runtime
  /// (timeout kills count their kill time).
  double executed_runtime_ms = 0;
  /// Max per-query runtime this iteration.
  double max_query_runtime_ms = 0;
  double timeout_ms = -1;  // timeout in force this iteration (-1 = none)
  int num_timeouts = 0;
  /// Noiseless test-set workload runtime (-1 when not evaluated).
  double test_runtime_ms = -1;
  /// Operator/shape composition of this iteration's executed plans (§8.6).
  std::vector<int> join_op_counts;   // size kNumJoinOps
  std::vector<int> scan_op_counts;   // size kNumScanOps
  int num_bushy_plans = 0;
  int num_left_deep_plans = 0;
  /// Wall clock spent planning, summed over per-query planning tasks (they
  /// overlap in time when planned across threads).
  double planning_time_ms = 0;
  /// Value-network forward passes this iteration's planning actually ran,
  /// and the batched inference calls that served them.
  int64_t network_evals = 0;
  int64_t inference_batches = 0;
};

class BalsaAgent {
 public:
  /// `expert_optimizer` is only required for BootstrapMode::kExpertDemos.
  /// All pointers are borrowed and must outlive the agent.
  BalsaAgent(const Schema* schema, ExecutionEngine* engine,
             const CostModelInterface* simulator,
             const CardinalityEstimatorInterface* estimator,
             const Workload* workload, BalsaAgentOptions options,
             const DpOptimizer* expert_optimizer = nullptr);

  /// Runs the bootstrap phase (simulation learning / expert demos / none).
  Status Bootstrap();

  /// Runs one execute + update iteration (§4.1).
  Status RunIteration();

  /// Bootstrap() + options.iterations x RunIteration().
  Status Train();

  /// Test-time planning: best predicted plan of the top-k (§4.2).
  StatusOr<Plan> PlanBest(const Query& query) const;

  /// Noiseless workload runtime of PlanBest plans (sum of latencies).
  StatusOr<double> EvaluateWorkload(
      const std::vector<const Query*>& queries) const;

  /// Diversified experiences (§6): resets the network to its
  /// post-bootstrap weights and retrains it on `merged` without any new
  /// query execution.
  Status RetrainFromExperience(const ExperienceBuffer& merged);

  const std::vector<IterationStats>& curve() const { return curve_; }
  const ExperienceBuffer& experience() const { return experience_; }
  ValueNetwork& value_network() { return *network_; }
  const Featurizer& featurizer() const { return featurizer_; }
  const SimulationStats& sim_stats() const { return sim_stats_; }
  double virtual_seconds() const { return virtual_seconds_; }
  int iterations_run() const { return iteration_; }
  const BalsaAgentOptions& options() const { return options_; }

 private:
  /// Beam-collapse probability of ExplorationMode::kEpsilonGreedy (§8.3.3).
  static constexpr double kEpsilon = 0.1;
  /// Virtual seconds charged per SGD sample processed during updates; this
  /// is what makes the retrain scheme progressively slower (§8.3.4).
  static constexpr double kUpdateSecondsPerSample = 2e-4;

  /// Plans one training query; `rng_seed` derives the per-query planning
  /// rng (epsilon-greedy only), making parallel planning deterministic.
  StatusOr<BeamSearchPlanner::PlanningResult> PlanForTraining(
      const Query& query, uint64_t rng_seed) const;
  const Plan* ChoosePlanToExecute(
      const Query& query, const std::vector<BeamSearchPlanner::ScoredPlan>&
                              candidates) const;

  ExecutionEngine* engine_;
  const CostModelInterface* simulator_;
  const Workload* workload_;
  BalsaAgentOptions options_;
  const DpOptimizer* expert_optimizer_;

  Featurizer featurizer_;
  std::unique_ptr<ValueNetwork> network_;
  /// Post-bootstrap weights, for diversified-experience retraining.
  std::unique_ptr<ValueNetwork> bootstrap_snapshot_;
  /// Scores each planning thread's frontiers on that thread.
  std::unique_ptr<InferenceService> inference_;
  /// Real planning threads (the virtual clock still accounts execution
  /// time via pool_).
  std::unique_ptr<ThreadPool> threads_;
  BeamSearchPlanner planner_;
  TimeoutPolicy timeout_;
  ExperienceBuffer experience_;
  SimulationStats sim_stats_;
  ExecutionPoolModel pool_;

  std::vector<IterationStats> curve_;
  int iteration_ = 0;
  double virtual_seconds_ = 0;
  bool bootstrapped_ = false;
};

}  // namespace balsa
