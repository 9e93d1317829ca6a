// The shared experiment environment: builds a workload's database, stats,
// estimators, cost models, engines (PostgresLike and CommDbLike), expert
// optimizers, and the train/test split — everything a bench or integration
// test needs, matching §8.1's setup on our substrates.
#pragma once

#include <memory>
#include <string>

#include "src/cost/cost_model.h"
#include "src/engine/execution_engine.h"
#include "src/optimizer/dp_optimizer.h"
#include "src/stats/card_oracle.h"
#include "src/workloads/workload.h"

namespace balsa {

enum class WorkloadKind {
  kJobRandomSplit,        // "JOB": 94 train / 19 test, random
  kJobSlowSplit,          // "JOB Slow": 19 slowest expert queries held out
  kJobSlowestTemplates,   // 4 slowest templates held out (§8.5)
  kJobTrainAll,           // all 113 JOB queries train (Ext-JOB experiments)
  kTpch,                  // TPC-H-like, template split
};

const char* WorkloadKindName(WorkloadKind kind);

struct EnvOptions {
  /// Multiplier on generated row counts. Benches default below 1.0 so the
  /// whole suite finishes quickly; 1.0 is the full reduced-IMDb scale.
  double data_scale = 1.0;
  uint64_t data_seed = 42;
  uint64_t workload_seed = 7;
  /// > 1 wraps the estimator in lognormal noise with this median factor
  /// (the §10 robustness experiment).
  double estimator_noise_factor = 0.0;
};

/// Everything needed to run the paper's experiments on one workload.
struct Env {
  EnvOptions options;
  std::unique_ptr<Database> db;
  std::unique_ptr<CardOracle> oracle;

  /// The textbook estimator (per-column histograms, independence).
  std::shared_ptr<CardinalityEstimator> base_estimator;
  /// The estimator handed to simulators/featurizers (possibly noisy).
  std::shared_ptr<CardinalityEstimatorInterface> estimator;

  std::unique_ptr<ExecutionEngine> pg_engine;      // PostgresLike
  std::unique_ptr<ExecutionEngine> commdb_engine;  // CommDbLike

  /// Simulators (§3.3): minimal C_out, the C_mm alternative, and each
  /// engine's expert cost model (the "Expert Sim" ablation arm).
  std::unique_ptr<CoutCostModel> cout_model;
  std::unique_ptr<CmmCostModel> cmm_model;
  std::unique_ptr<EngineCostModel> pg_expert_model;
  std::unique_ptr<EngineCostModel> commdb_expert_model;

  /// The expert optimizers standing in for PostgreSQL's / CommDB's planners.
  std::unique_ptr<DpOptimizer> pg_expert;
  std::unique_ptr<DpOptimizer> commdb_expert;

  Workload workload;
  /// Ext-JOB-like queries (filled for JOB kinds; empty for TPC-H).
  Workload ext_workload;

  const Schema& schema() const { return db->schema(); }

  ExecutionEngine* engine(bool commdb) {
    return commdb ? commdb_engine.get() : pg_engine.get();
  }
  const DpOptimizer* expert(bool commdb) const {
    return commdb ? commdb_expert.get() : pg_expert.get();
  }
  const EngineCostModel* expert_model(bool commdb) const {
    return commdb ? commdb_expert_model.get() : pg_expert_model.get();
  }
};

/// Builds the full environment for `kind`. Generates data, runs ANALYZE,
/// and (for the slow splits) plans the workload with the expert to rank
/// query runtimes.
StatusOr<std::unique_ptr<Env>> MakeEnv(WorkloadKind kind,
                                       const EnvOptions& options = {});

/// Expert plan + noiseless runtime for each query (the baseline both
/// figures normalize against).
struct ExpertBaseline {
  std::vector<Plan> plans;
  std::vector<double> runtimes_ms;
  double total_ms = 0;
};
StatusOr<ExpertBaseline> ComputeExpertBaseline(
    const DpOptimizer& expert, ExecutionEngine* engine,
    const std::vector<const Query*>& queries);

}  // namespace balsa
