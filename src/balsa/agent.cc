#include "src/balsa/agent.h"

#include <algorithm>
#include <optional>

#include "src/util/logging.h"
#include "src/util/parallel_for.h"

namespace balsa {

namespace {

/// Seed of the per-(iteration, query) planning rng: parallel planning
/// cannot share one rng stream, so each task derives its own — a pure
/// function of (agent seed, iteration, query index), independent of thread
/// scheduling.
uint64_t PlanningSeed(uint64_t seed, int iteration, size_t qi) {
  uint64_t h = seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  h ^= (static_cast<uint64_t>(iteration) + 1) * 0xBF58476D1CE4E5B9ULL;
  h ^= (qi + 1) * 0x94D049BB133111EBULL;
  return h;
}

}  // namespace

BalsaAgent::BalsaAgent(const Schema* schema, ExecutionEngine* engine,
                       const CostModelInterface* simulator,
                       const CardinalityEstimatorInterface* estimator,
                       const Workload* workload, BalsaAgentOptions options,
                       const DpOptimizer* expert_optimizer)
    : engine_(engine),
      simulator_(simulator),
      workload_(workload),
      options_(std::move(options)),
      expert_optimizer_(expert_optimizer),
      featurizer_(schema, estimator),
      planner_(schema, nullptr, nullptr, options_.planner),
      timeout_(options_.timeout),
      pool_(options_.num_workers) {
  // Engines refusing bushy plans shrink the search space (§8.2).
  if (!engine_->options().accepts_bushy) {
    options_.planner.bushy = false;
  }
  const bool epsilon_greedy =
      options_.exploration == ExplorationMode::kEpsilonGreedy;
  options_.planner.epsilon_collapse = epsilon_greedy ? kEpsilon : 0.0;
  options_.net.query_dim = featurizer_.query_dim();
  options_.net.node_dim = featurizer_.node_dim();
  options_.net.init_seed = options_.seed + 1;
  network_ = std::make_unique<ValueNetwork>(options_.net);
  inference_ =
      std::make_unique<InferenceService>(network_.get(), options_.inference);
  threads_ = std::make_unique<ThreadPool>(options_.num_threads);
  if (options_.sim.num_threads == 0) {
    options_.sim.num_threads = options_.num_threads;
  }
  planner_ = BeamSearchPlanner(schema, &featurizer_, network_.get(),
                               options_.planner);
  planner_.set_inference_service(inference_.get());
}

Status BalsaAgent::Bootstrap() {
  if (bootstrapped_) {
    return Status::FailedPrecondition("agent already bootstrapped");
  }
  switch (options_.bootstrap) {
    case BootstrapMode::kNone:
      break;
    case BootstrapMode::kSimulation: {
      SimulationOptions sim = options_.sim;
      sim.seed += options_.seed;
      BALSA_ASSIGN_OR_RETURN(
          std::vector<TrainingPoint> data,
          CollectSimulationData(workload_->TrainQueries(),
                                featurizer_.schema(), *simulator_,
                                featurizer_, sim, &sim_stats_));
      if (data.empty()) {
        return Status::Internal("simulation collected no data");
      }
      ValueNetwork::TrainOptions train = options_.sim_train;
      train.shuffle_seed = options_.seed + 2;
      auto result = network_->Train(data, train);
      BALSA_LOG(kInfo,
                "sim bootstrap: %zu points, %d epochs, val loss %.4f",
                data.size(), result.epochs_run, result.best_val_loss);
      break;
    }
    case BootstrapMode::kExpertDemos: {
      if (expert_optimizer_ == nullptr) {
        return Status::InvalidArgument(
            "expert demonstrations require an expert optimizer");
      }
      // One expert plan per training query, executed in full (Neo, §8.4).
      double max_runtime = 0;
      std::vector<double> latencies;
      for (const Query* query : workload_->TrainQueries()) {
        BALSA_ASSIGN_OR_RETURN(OptimizedPlan expert,
                               expert_optimizer_->Optimize(*query));
        BALSA_ASSIGN_OR_RETURN(ExecutionResult result,
                               engine_->Execute(*query, expert.plan));
        Execution e;
        e.query_id = query->id();
        e.plan = std::move(expert.plan);
        e.label_ms = result.latency_ms;
        e.iteration = -1;  // bootstrap data, before any RL iteration
        experience_.Add(std::move(e));
        latencies.push_back(result.latency_ms);
        max_runtime = std::max(max_runtime, result.latency_ms);
      }
      timeout_.ObserveIteration(max_runtime);
      ValueNetwork::TrainOptions train = options_.sim_train;
      train.shuffle_seed = options_.seed + 2;
      auto data = experience_.BuildDataset(featurizer_, *workload_, -1);
      network_->Train(data, train);
      virtual_seconds_ += pool_.Makespan(latencies) / 1000.0;
      break;
    }
  }
  bootstrap_snapshot_ = std::make_unique<ValueNetwork>(options_.net);
  BALSA_RETURN_IF_ERROR(bootstrap_snapshot_->CopyWeightsFrom(*network_));
  bootstrapped_ = true;
  return Status::OK();
}

StatusOr<BeamSearchPlanner::PlanningResult> BalsaAgent::PlanForTraining(
    const Query& query, uint64_t rng_seed) const {
  Rng rng(rng_seed);
  return planner_.TopK(query, &rng);
}

const Plan* BalsaAgent::ChoosePlanToExecute(
    const Query& query,
    const std::vector<BeamSearchPlanner::ScoredPlan>& candidates) const {
  if (candidates.empty()) return nullptr;
  if (options_.exploration == ExplorationMode::kCountBased) {
    // Safe exploration (§5): the best *unseen* plan of the top-k; if all
    // have been executed before, exploit the predicted-best.
    for (const auto& c : candidates) {
      if (experience_.VisitCount(query.id(), c.plan.Fingerprint()) == 0) {
        return &c.plan;
      }
    }
  }
  return &candidates[0].plan;
}

Status BalsaAgent::RunIteration() {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("call Bootstrap() before training");
  }
  IterationStats stats;
  stats.iteration = iteration_;
  stats.timeout_ms = timeout_.CurrentTimeoutMs();
  stats.join_op_counts.assign(kNumJoinOps, 0);
  stats.scan_op_counts.assign(kNumScanOps, 0);

  // --- Execute phase (§4.1): plan every training query, run it ---------
  // Planning fans out across the runtime's real threads (network scoring is
  // the hot path; each thread scores its own frontiers on the const network).
  // Executions then run in deterministic query order: the engine's noise
  // stream, plan cache, and the experience buffer stay sequential, so an
  // iteration's outcome is independent of the thread count.
  const std::vector<const Query*> queries = workload_->TrainQueries();
  std::vector<std::optional<StatusOr<BeamSearchPlanner::PlanningResult>>>
      planned_all(queries.size());
  BALSA_RETURN_IF_ERROR(ParallelForStatus(
      threads_.get(), queries.size(), [&](size_t qi) -> Status {
        planned_all[qi] = PlanForTraining(
            *queries[qi], PlanningSeed(options_.seed, iteration_, qi));
        return planned_all[qi]->ok() ? Status::OK()
                                     : planned_all[qi]->status();
      }));

  std::vector<double> latencies;
  double max_runtime = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query* query = queries[qi];
    BeamSearchPlanner::PlanningResult planned =
        std::move(*planned_all[qi]).value();
    stats.planning_time_ms += planned.planning_time_ms;
    stats.network_evals += planned.network_evals;
    stats.inference_batches += planned.batch_calls;
    const Plan* chosen = ChoosePlanToExecute(*query, planned.plans);
    if (chosen == nullptr) {
      return Status::Internal("no plan produced for " + query->name());
    }
    BALSA_ASSIGN_OR_RETURN(
        ExecutionResult result,
        engine_->Execute(*query, *chosen, stats.timeout_ms));

    Execution e;
    e.query_id = query->id();
    e.plan = *chosen;
    e.iteration = iteration_;
    e.timed_out = result.timed_out;
    e.label_ms =
        result.timed_out ? TimeoutPolicy::kRelabelMs : result.latency_ms;
    experience_.Add(std::move(e));

    latencies.push_back(result.latency_ms);
    stats.executed_runtime_ms += result.latency_ms;
    max_runtime = std::max(max_runtime, result.latency_ms);
    if (result.timed_out) stats.num_timeouts++;

    std::vector<int> joins, scans;
    chosen->CountOps(&joins, &scans);
    for (int op = 0; op < kNumJoinOps; ++op) {
      stats.join_op_counts[op] += joins[op];
    }
    for (int op = 0; op < kNumScanOps; ++op) {
      stats.scan_op_counts[op] += scans[op];
    }
    if (chosen->IsBushy()) {
      stats.num_bushy_plans++;
    } else if (chosen->IsLeftDeep()) {
      stats.num_left_deep_plans++;
    }
  }
  stats.max_query_runtime_ms = max_runtime;
  timeout_.ObserveIteration(max_runtime);

  // --- Update phase: on-policy SGD or full retrain (§4.1, §8.3.4) -------
  int dataset_scope =
      options_.train_scheme == TrainScheme::kOnPolicy ? iteration_ : -1;
  auto data = experience_.BuildDataset(featurizer_, *workload_, dataset_scope);
  if (options_.train_scheme == TrainScheme::kRetrain) {
    network_->InitWeights(options_.seed + 100 + iteration_);
  }
  ValueNetwork::TrainOptions train = options_.real_train;
  train.shuffle_seed = options_.seed + 1000 + iteration_;
  auto train_result = network_->Train(data, train);

  // --- Virtual clock: pool makespan + update time (§7) ------------------
  virtual_seconds_ += pool_.Makespan(latencies) / 1000.0;
  virtual_seconds_ += static_cast<double>(train_result.sgd_samples) *
                      kUpdateSecondsPerSample;
  stats.virtual_seconds = virtual_seconds_;
  stats.unique_plans = static_cast<int64_t>(experience_.NumUniquePlans());

  // Periodic held-out evaluation (noiseless; no virtual time).
  bool last_iteration = iteration_ + 1 >= options_.iterations;
  if (options_.eval_test_every > 0 && !workload_->test_indices().empty() &&
      (iteration_ % options_.eval_test_every == 0 || last_iteration)) {
    BALSA_ASSIGN_OR_RETURN(stats.test_runtime_ms,
                           EvaluateWorkload(workload_->TestQueries()));
  }

  curve_.push_back(std::move(stats));
  iteration_++;
  return Status::OK();
}

Status BalsaAgent::Train() {
  BALSA_RETURN_IF_ERROR(Bootstrap());
  for (int i = 0; i < options_.iterations; ++i) {
    BALSA_RETURN_IF_ERROR(RunIteration());
  }
  return Status::OK();
}

StatusOr<Plan> BalsaAgent::PlanBest(const Query& query) const {
  // Test-time planning is pure exploitation: no epsilon collapse.
  BeamSearchPlanner exploit = planner_;
  PlannerOptions opts = exploit.options();
  opts.epsilon_collapse = 0;
  exploit.set_options(opts);
  BALSA_ASSIGN_OR_RETURN(BeamSearchPlanner::PlanningResult planned,
                         exploit.TopK(query, nullptr));
  return planned.plans[0].plan;
}

StatusOr<double> BalsaAgent::EvaluateWorkload(
    const std::vector<const Query*>& queries) const {
  // Plan in parallel (pure network inference), then measure sequentially:
  // the engine and card oracle are the stateful substrate.
  std::vector<std::optional<StatusOr<Plan>>> plans(queries.size());
  BALSA_RETURN_IF_ERROR(ParallelForStatus(
      threads_.get(), queries.size(), [&](size_t qi) -> Status {
        plans[qi] = PlanBest(*queries[qi]);
        return plans[qi]->ok() ? Status::OK() : plans[qi]->status();
      }));
  double total = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    BALSA_ASSIGN_OR_RETURN(
        double latency,
        engine_->NoiselessLatency(*queries[qi], plans[qi]->value()));
    total += latency;
  }
  return total;
}

Status BalsaAgent::RetrainFromExperience(const ExperienceBuffer& merged) {
  if (bootstrap_snapshot_ == nullptr) {
    return Status::FailedPrecondition("agent was never bootstrapped");
  }
  BALSA_RETURN_IF_ERROR(network_->CopyWeightsFrom(*bootstrap_snapshot_));
  auto data = merged.BuildDataset(featurizer_, *workload_, -1);
  if (data.empty()) {
    return Status::InvalidArgument("merged experience is empty");
  }
  ValueNetwork::TrainOptions train = options_.real_train;
  train.max_epochs = std::max(train.max_epochs, 10);
  train.shuffle_seed = options_.seed + 31337;
  network_->Train(data, train);
  return Status::OK();
}

}  // namespace balsa
