#include "src/harness/env.h"

#include "src/stats/table_stats.h"
#include "src/storage/data_generator.h"
#include "src/workloads/imdb_like.h"
#include "src/workloads/job_workload.h"
#include "src/workloads/tpch_like.h"

namespace balsa {

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kJobRandomSplit: return "JOB";
    case WorkloadKind::kJobSlowSplit: return "JOB Slow";
    case WorkloadKind::kJobSlowestTemplates: return "JOB SlowTemplates";
    case WorkloadKind::kJobTrainAll: return "JOB (train=all)";
    case WorkloadKind::kTpch: return "TPC-H";
  }
  return "?";
}

StatusOr<ExpertBaseline> ComputeExpertBaseline(
    const DpOptimizer& expert, ExecutionEngine* engine,
    const std::vector<const Query*>& queries) {
  ExpertBaseline baseline;
  for (const Query* query : queries) {
    BALSA_ASSIGN_OR_RETURN(OptimizedPlan plan, expert.Optimize(*query));
    BALSA_ASSIGN_OR_RETURN(double latency,
                           engine->NoiselessLatency(*query, plan.plan));
    baseline.plans.push_back(std::move(plan.plan));
    baseline.runtimes_ms.push_back(latency);
    baseline.total_ms += latency;
  }
  return baseline;
}

StatusOr<std::unique_ptr<Env>> MakeEnv(WorkloadKind kind,
                                       const EnvOptions& options) {
  auto env = std::make_unique<Env>();
  env->options = options;

  // --- Schema, data, workload ------------------------------------------
  bool is_tpch = kind == WorkloadKind::kTpch;
  Schema schema;
  if (is_tpch) {
    TpchLikeOptions tpch;
    tpch.seed = options.workload_seed;
    BALSA_ASSIGN_OR_RETURN(schema, BuildTpchLikeSchema(tpch));
    env->db = std::make_unique<Database>(std::move(schema));
    BALSA_ASSIGN_OR_RETURN(env->workload,
                           GenerateTpchWorkload(env->db->schema(), tpch));
  } else {
    BALSA_ASSIGN_OR_RETURN(schema, BuildImdbLikeSchema());
    env->db = std::make_unique<Database>(std::move(schema));
    JobWorkloadOptions job;
    job.seed = options.workload_seed;
    BALSA_ASSIGN_OR_RETURN(env->workload,
                           GenerateJobWorkload(env->db->schema(), job));
    BALSA_ASSIGN_OR_RETURN(env->ext_workload,
                           GenerateExtJobWorkload(env->db->schema(), job));
  }

  DataGeneratorOptions gen;
  gen.seed = options.data_seed;
  gen.scale = options.data_scale;
  BALSA_RETURN_IF_ERROR(GenerateData(env->db.get(), gen));

  env->oracle = std::make_unique<CardOracle>(env->db.get());

  // --- Statistics and estimators ----------------------------------------
  BALSA_ASSIGN_OR_RETURN(std::vector<TableStats> stats, Analyze(*env->db));
  env->base_estimator = std::make_shared<CardinalityEstimator>(
      &env->db->schema(), std::move(stats));
  if (options.estimator_noise_factor > 1.0) {
    env->estimator = std::make_shared<NoisyCardinalityEstimator>(
        env->base_estimator, options.estimator_noise_factor);
  } else {
    env->estimator = env->base_estimator;
  }

  // --- Engines ------------------------------------------------------------
  env->pg_engine = std::make_unique<ExecutionEngine>(
      env->db.get(), env->oracle.get(), PostgresLikeEngineOptions());
  env->commdb_engine = std::make_unique<ExecutionEngine>(
      env->db.get(), env->oracle.get(), CommDbLikeEngineOptions());

  // --- Cost models (simulators and expert models) -----------------------
  const Schema* schema_ptr = &env->db->schema();
  env->cout_model =
      std::make_unique<CoutCostModel>(env->estimator, schema_ptr);
  env->cmm_model = std::make_unique<CmmCostModel>(env->estimator, schema_ptr);
  env->pg_expert_model = std::make_unique<EngineCostModel>(
      env->estimator, schema_ptr, env->pg_engine->options().params);
  env->commdb_expert_model = std::make_unique<EngineCostModel>(
      env->estimator, schema_ptr, env->commdb_engine->options().params);

  // Expert optimizers use *their own engine's* cost model and respect its
  // hint interface (CommDB: left-deep only).
  DpOptimizerOptions pg_dp;
  env->pg_expert = std::make_unique<DpOptimizer>(
      schema_ptr, env->pg_expert_model.get(), pg_dp);
  DpOptimizerOptions commdb_dp;
  commdb_dp.bushy = false;
  env->commdb_expert = std::make_unique<DpOptimizer>(
      schema_ptr, env->commdb_expert_model.get(), commdb_dp);

  // --- Train/test split ----------------------------------------------------
  switch (kind) {
    case WorkloadKind::kTpch:
      break;  // installed by the generator (template split)
    case WorkloadKind::kJobRandomSplit:
      BALSA_RETURN_IF_ERROR(
          env->workload.RandomSplit(19, options.workload_seed + 1));
      break;
    case WorkloadKind::kJobTrainAll:
      env->workload.UseAllForTraining();
      env->ext_workload.UseAllForTraining();
      break;
    case WorkloadKind::kJobSlowSplit:
    case WorkloadKind::kJobSlowestTemplates: {
      std::vector<const Query*> all;
      for (const Query& q : env->workload.queries()) all.push_back(&q);
      BALSA_ASSIGN_OR_RETURN(
          ExpertBaseline baseline,
          ComputeExpertBaseline(*env->pg_expert, env->pg_engine.get(), all));
      if (kind == WorkloadKind::kJobSlowSplit) {
        BALSA_RETURN_IF_ERROR(
            env->workload.SlowSplit(19, baseline.runtimes_ms));
      } else {
        BALSA_RETURN_IF_ERROR(env->workload.SlowestTemplateSplit(
            12, baseline.runtimes_ms, env->db->schema()));
      }
      break;
    }
  }
  return env;
}

}  // namespace balsa
