// Shared scaffolding for the experiment benches: flag parsing, environment
// construction, expert baselines, paper-vs-measured table printing, and the
// paired-ratio discipline of the overhead gates.
// Every bench prints the paper's reported values next to our measured ones;
// absolute numbers differ (our substrate is a simulator), the *shape* —
// who wins, by roughly what factor — is the reproduction target.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/env.h"
#include "src/harness/runner.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/replay_driver.h"
#include "src/util/logging.h"
#include "src/util/stats_util.h"
#include "src/util/table_printer.h"

namespace balsa::bench {

/// ThreadSanitizer multiplies atomic costs unevenly, so overhead gates relax
/// their ratio thresholds and smoke modes shrink their phases under it.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsanBuild = true;
#else
inline constexpr bool kTsanBuild = false;
#endif
#else
inline constexpr bool kTsanBuild = false;
#endif

/// Builds an env for the flags, dying on error (benches are executables).
inline std::unique_ptr<Env> MustMakeEnv(WorkloadKind kind,
                                        const BenchFlags& flags,
                                        double noise_factor = 0) {
  EnvOptions options;
  options.data_scale = flags.scale;
  options.estimator_noise_factor = noise_factor;
  auto env = MakeEnv(kind, options);
  BALSA_CHECK(env.ok(), env.status().ToString());
  return std::move(env).value();
}

/// The untrained value network the serving benches plan with: they gate
/// throughput and correctness, not plan quality.
inline ValueNetConfig ServingNetConfig(const Featurizer& featurizer) {
  ValueNetConfig config;
  config.query_dim = featurizer.query_dim();
  config.node_dim = featurizer.node_dim();
  config.tree_hidden1 = 32;
  config.tree_hidden2 = 16;
  config.mlp_hidden = 16;
  config.init_seed = 7;
  return config;
}

/// The env's workload queries joining at most `max_relations` relations.
inline std::vector<const Query*> QueriesUpTo(const Env& env,
                                             int max_relations) {
  std::vector<const Query*> queries;
  for (const Query& q : env.workload.queries()) {
    if (q.num_relations() <= max_relations) queries.push_back(&q);
  }
  BALSA_CHECK(!queries.empty(), "no queries under the relation cap");
  return queries;
}

struct Baselines {
  ExpertBaseline train;
  ExpertBaseline test;
};

inline Baselines MustExpertBaselines(Env& env, bool commdb) {
  auto train = ComputeExpertBaseline(*env.expert(commdb), env.engine(commdb),
                                     env.workload.TrainQueries());
  BALSA_CHECK(train.ok(), train.status().ToString());
  Baselines b;
  b.train = std::move(train).value();
  if (!env.workload.test_indices().empty()) {
    auto test = ComputeExpertBaseline(*env.expert(commdb), env.engine(commdb),
                                      env.workload.TestQueries());
    BALSA_CHECK(test.ok(), test.status().ToString());
    b.test = std::move(test).value();
  }
  return b;
}

inline void PrintHeader(const char* id, const char* paper_claim,
                        const BenchFlags& flags) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id);
  std::printf("paper: %s\n", paper_claim);
  std::printf("config: %s\n", flags.ToString().c_str());
  std::printf("==============================================================\n");
}

inline std::string Speedup(double expert_ms, double agent_ms) {
  if (agent_ms <= 0) return "n/a";
  return TablePrinter::Fmt(expert_ms / agent_ms, 2) + "x";
}

/// Honors --metrics-json=<path>: dumps the default metrics registry (every
/// instrument the bench's components attached to obs::MetricsRegistry::
/// Default()) as JSON. Call once at bench exit. No-op without the flag.
inline void DumpMetricsJsonIfRequested(const BenchFlags& flags) {
  if (flags.metrics_json.empty()) return;
  const obs::RegistrySnapshot snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  Status status = obs::WriteJsonFile(snapshot, flags.metrics_json);
  if (!status.ok()) {
    std::printf("metrics dump failed: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("metrics: %zu series -> %s\n", snapshot.metrics.size(),
              flags.metrics_json.c_str());
}

/// Requests/sec of one closed-loop replay of `requests_per_client` each.
inline double ReplayRps(OptimizerServer* server,
                        const std::vector<const Query*>& queries,
                        ReplayOptions replay, int requests_per_client) {
  replay.requests_per_client = requests_per_client;
  auto report = ReplayWorkload(server, queries, replay);
  BALSA_CHECK(report.ok(), report.status().ToString());
  return report->requests_per_sec;
}

/// One overhead gate's measurements.
struct PairedRatio {
  /// Every throughput measured, all attempts, in measurement order.
  std::vector<double> baseline, candidate;
  /// Median candidate/baseline ratio over the last attempt's rounds.
  double ratio = 0;
};

/// Gates `candidate` throughput against `baseline` (each callable measures
/// once and returns a rate). A round runs the two back to back, order
/// alternating, so its ratio is a paired measurement: machine drift slower
/// than a round cancels out of it. The gate takes the median ratio over
/// `rounds`, which shrugs off a lucky or unlucky round, and re-measures at
/// most twice while that median is below `threshold`: on a shared machine
/// noise can only fail a perf gate, never pass it, so retrying does not
/// weaken the gate's direction.
inline PairedRatio MeasurePairedRatio(const char* name, int rounds,
                                      double threshold,
                                      const std::function<double()>& baseline,
                                      const std::function<double()>& candidate) {
  PairedRatio out;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0) {
      std::printf("%s gate missed (ratio %.3f); re-measuring\n", name,
                  out.ratio);
    }
    std::vector<double> ratios;
    for (int round = 0; round < rounds; ++round) {
      if (round % 2 == 0) {
        out.baseline.push_back(baseline());
        out.candidate.push_back(candidate());
      } else {
        out.candidate.push_back(candidate());
        out.baseline.push_back(baseline());
      }
      ratios.push_back(out.candidate.back() / out.baseline.back());
    }
    out.ratio = Median(ratios);
    if (out.ratio >= threshold) break;
  }
  return out;
}

}  // namespace balsa::bench
