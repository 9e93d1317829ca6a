#include "src/harness/runner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "src/util/parallel_for.h"
#include "src/util/stats_util.h"
#include "src/util/thread_pool.h"

namespace balsa {

BenchFlags BenchFlags::Parse(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* name) -> const char* {
      size_t len = std::strlen(name);
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--scale")) flags.scale = std::atof(v);
    else if (const char* v = value("--iters")) flags.iters = std::atoi(v);
    else if (const char* v = value("--seeds")) flags.seeds = std::atoi(v);
    else if (const char* v = value("--threads")) flags.threads = std::atoi(v);
    else if (const char* v = value("--metrics-json")) flags.metrics_json = v;
    else if (std::strcmp(argv[i], "--full") == 0) flags.full = true;
  }
  if (flags.full) {
    flags.scale = 1.0;
    flags.iters = 100;
    flags.seeds = 8;
  }
  return flags;
}

std::string BenchFlags::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "scale=%.2f iters=%d seeds=%d threads=%d%s",
                scale, iters, seeds, threads, full ? " (full)" : "");
  return buf;
}

BalsaAgentOptions DefaultBenchAgentOptions(const BenchFlags& flags) {
  BalsaAgentOptions options;
  options.iterations = flags.iters;
  options.num_threads = flags.threads;
  options.sim.max_points_per_query = flags.full ? 6000 : 800;
  options.eval_test_every = 5;
  if (!flags.full) {
    // Scaled-down planning and training: the paper's Figure 14 shows small
    // beams lose no plan quality, and reduced sim budgets preserve the
    // bootstrap's purpose (avoiding disasters, not expertise). --full
    // restores the paper's b=20, k=10 and full simulation budgets.
    options.planner.beam_size = 10;
    options.planner.top_k = 5;
    options.real_train.max_epochs = 8;
    options.sim.max_points_per_query = 350;
    options.sim_train.max_epochs = 8;
  }
  return options;
}

namespace {

StatusOr<AgentRunResult> RunAgentOnEngine(Env* env, ExecutionEngine* engine,
                                          bool commdb,
                                          const CostModelInterface* simulator,
                                          BalsaAgentOptions options) {
  BalsaAgent agent(&env->schema(), engine, simulator, env->estimator.get(),
                   &env->workload, std::move(options), env->expert(commdb));
  BALSA_RETURN_IF_ERROR(agent.Train());

  AgentRunResult result;
  result.curve = agent.curve();
  result.sim_collect_seconds = agent.sim_stats().collect_seconds;
  result.sim_points = agent.sim_stats().num_points;
  BALSA_ASSIGN_OR_RETURN(result.final_train_ms,
                         agent.EvaluateWorkload(env->workload.TrainQueries()));
  if (!env->workload.test_indices().empty()) {
    BALSA_ASSIGN_OR_RETURN(result.final_test_ms,
                           agent.EvaluateWorkload(env->workload.TestQueries()));
  }
  result.experience = agent.experience();
  return result;
}

}  // namespace

StatusOr<AgentRunResult> RunAgent(Env* env, bool commdb,
                                  const CostModelInterface* simulator,
                                  BalsaAgentOptions options) {
  return RunAgentOnEngine(env, env->engine(commdb), commdb, simulator,
                          std::move(options));
}

StatusOr<std::vector<AgentRunResult>> RunAgentSeeds(
    Env* env, bool commdb, const CostModelInterface* simulator,
    BalsaAgentOptions options, int seeds) {
  // Fan the runs across real threads — the paper's "8 parallel runs"
  // methodology executed as actual parallelism. Every run gets a private
  // engine (own plan cache + noise stream keyed off the run seed) so the
  // result vector is a pure function of (env, options, seeds): independent
  // of the thread count and of the other runs. The card oracle is shared;
  // its memoization is thread-safe and execution-order independent.
  std::vector<std::optional<StatusOr<AgentRunResult>>> runs(
      static_cast<size_t>(seeds));
  ThreadPool pool(options.num_threads);
  // Each agent spins its own planning pool; slice the thread budget across
  // the runs executing concurrently instead of oversubscribing the machine
  // by seeds x hardware_concurrency.
  const int concurrent = std::max(1, std::min(seeds, pool.num_threads()));
  const int threads_per_run = std::max(1, pool.num_threads() / concurrent);
  BALSA_RETURN_IF_ERROR(ParallelForStatus(
      &pool, static_cast<size_t>(seeds), [&](size_t s) -> Status {
        BalsaAgentOptions opts = options;
        opts.seed = options.seed + s;
        opts.num_threads = threads_per_run;
        EngineOptions engine_opts = env->engine(commdb)->options();
        engine_opts.noise_seed += s * 0x9E3779B9ULL;
        ExecutionEngine run_engine(env->db.get(), env->oracle.get(),
                                   std::move(engine_opts));
        runs[s] = RunAgentOnEngine(env, &run_engine, commdb, simulator,
                                   std::move(opts));
        return runs[s]->ok() ? Status::OK() : runs[s]->status();
      }));
  std::vector<AgentRunResult> out;
  out.reserve(runs.size());
  for (auto& run : runs) out.push_back(std::move(*run).value());
  return out;
}

double MedianOf(const std::vector<AgentRunResult>& runs,
                const std::function<double(const AgentRunResult&)>& get) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const AgentRunResult& run : runs) values.push_back(get(run));
  return Median(values);
}

void PrintCurve(const std::string& label,
                const std::vector<IterationStats>& curve,
                double expert_train_ms, int stride) {
  std::printf("%s: iteration, virtual_min, normalized_runtime, unique_plans, "
              "timeouts\n", label.c_str());
  for (size_t i = 0; i < curve.size(); i += static_cast<size_t>(stride)) {
    const IterationStats& s = curve[i];
    std::printf("  %4d  %8.1f  %8.3f  %6lld  %3d\n", s.iteration,
                s.virtual_seconds / 60.0,
                expert_train_ms > 0 ? s.executed_runtime_ms / expert_train_ms
                                    : 0.0,
                static_cast<long long>(s.unique_plans), s.num_timeouts);
  }
}

}  // namespace balsa
