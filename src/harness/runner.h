// Multi-seed experiment machinery shared by the bench binaries: runs agents
// across seeds on an Env, collects learning curves and final train/test
// workload runtimes, and reports medians — the paper's "median of 8 runs"
// methodology at configurable seed counts.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/balsa/agent.h"
#include "src/harness/env.h"

namespace balsa {

/// Command-line knobs common to all benches. Benches run scaled-down
/// defaults; --full restores paper-like scale.
struct BenchFlags {
  double scale = 0.25;  // data scale
  int iters = 15;       // RL iterations
  int seeds = 1;        // independent runs
  /// Real threads for planning / simulation collection / seed fan-out
  /// (0 = hardware concurrency). Results are thread-count independent.
  int threads = 0;
  bool full = false;
  /// --metrics-json=<path>: where to dump the default metrics registry as
  /// JSON when the bench exits (empty = no dump). See
  /// bench::DumpMetricsJsonIfRequested.
  std::string metrics_json;

  static BenchFlags Parse(int argc, char** argv);
  std::string ToString() const;
};

struct AgentRunResult {
  std::vector<IterationStats> curve;
  double final_train_ms = 0;
  double final_test_ms = 0;
  double sim_collect_seconds = 0;
  size_t sim_points = 0;
  ExperienceBuffer experience;
};

/// Trains one Balsa agent on `env` (simulator = the given cost model) and
/// evaluates final train/test workload runtimes (noiseless).
StatusOr<AgentRunResult> RunAgent(Env* env, bool commdb,
                                  const CostModelInterface* simulator,
                                  BalsaAgentOptions options);

/// Runs `seeds` agents with seeds 0..n-1; options.seed is added per run.
/// Runs fan out across a thread pool of options.num_threads threads,
/// each against its own ExecutionEngine instance (fresh plan cache, its own
/// noise stream derived from the run seed) over the shared card oracle, so
/// results are independent of the thread count and of each other.
StatusOr<std::vector<AgentRunResult>> RunAgentSeeds(
    Env* env, bool commdb, const CostModelInterface* simulator,
    BalsaAgentOptions options, int seeds);

/// Median of a member across runs.
double MedianOf(const std::vector<AgentRunResult>& runs,
                const std::function<double(const AgentRunResult&)>& get);

/// Default Balsa options used by the benches (paper defaults, with data
/// collection capped so the suite finishes quickly).
BalsaAgentOptions DefaultBenchAgentOptions(const BenchFlags& flags);

/// Prints a learning curve: normalized runtime vs virtual time and plans.
void PrintCurve(const std::string& label,
                const std::vector<IterationStats>& curve,
                double expert_train_ms, int stride = 1);

}  // namespace balsa
