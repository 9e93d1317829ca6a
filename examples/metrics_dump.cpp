// Metrics dump: stand up the instrumented serving stack, push traffic
// through it, and print everything the obs layer collected — the registry's
// text dump, the per-stage latency breakdown, and one fully-traced request
// followed from fingerprinting through plan-cache lookup, beam search,
// inference batches, and the executor's scans/joins.
//
//   ./build/examples/metrics_dump [requests] [--json=PATH] [--explain]
//
// With --json=PATH the registry snapshot is also written as JSON (the same
// format the benches emit for --metrics-json). With --explain, one Ext-JOB
// query is planned and executed with profiling on, and its EXPLAIN ANALYZE
// tree (estimated vs actual rows, per-node Q-error, per-node timings) is
// printed next to the stage breakdown.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/harness/env.h"
#include "src/introspect/explain.h"
#include "src/model/value_network.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/optimizer_server.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace balsa;
  int requests = 64;
  std::string json_path;
  bool explain = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else {
      requests = std::atoi(argv[i]);
    }
  }
  if (requests < 1) requests = 1;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();

  std::printf("Building a small JOB-like environment ...\n");
  EnvOptions env_options;
  env_options.data_scale = 0.05;
  auto env_or = MakeEnv(WorkloadKind::kJobTrainAll, env_options);
  if (!env_or.ok()) {
    std::fprintf(stderr, "MakeEnv: %s\n", env_or.status().ToString().c_str());
    return 1;
  }
  Env& env = **env_or;
  env.db->AttachMetrics(&registry);

  Featurizer featurizer(&env.schema(), env.estimator.get());
  ValueNetConfig net_config;
  net_config.query_dim = featurizer.query_dim();
  net_config.node_dim = featurizer.node_dim();
  net_config.tree_hidden1 = 32;
  net_config.tree_hidden2 = 16;
  net_config.mlp_hidden = 16;
  net_config.init_seed = 7;
  ValueNetwork network(net_config);

  OptimizerServerOptions options;
  options.planner.beam_size = 5;
  options.planner.top_k = 3;
  options.metrics = &registry;       // attach every serving metric
  options.trace.sample_every = 1;    // trace every request for the demo
  OptimizerServer server(&env.schema(), &featurizer, &network,
                         env.oracle.get(), options);

  std::vector<const Query*> queries;
  for (const Query& q : env.workload.queries()) {
    if (q.num_relations() <= 6) queries.push_back(&q);
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no small queries in the workload\n");
    return 1;
  }

  std::printf("Serving %d requests over %zu distinct queries ...\n",
              requests, queries.size());
  std::shared_ptr<obs::Trace> first_trace;
  for (int i = 0; i < requests; ++i) {
    const Query& q = *queries[static_cast<size_t>(i) % queries.size()];
    auto served = server.Optimize(q);
    if (!served.ok()) {
      std::fprintf(stderr, "Optimize: %s\n",
                   served.status().ToString().c_str());
      return 1;
    }
    if (first_trace == nullptr) first_trace = served->trace;
    // Execute the first few served plans under the request's own trace so
    // exec_scan/exec_join spans land in the same story as the serve.
    if (i < 3 && served->trace != nullptr) {
      Executor exec(env.db.get());
      obs::ScopedTraceContext scope(server.tracer(), served->trace);
      auto result = exec.Execute(q, served->plan);
      if (!result.ok()) {
        std::fprintf(stderr, "Execute: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
  }

  std::printf("\n--- registry text dump -------------------------------\n");
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  std::fputs(obs::TextDump(snapshot).c_str(), stdout);

  std::printf("\n--- per-stage latency breakdown ----------------------\n");
  obs::PrintStageBreakdown(*server.tracer());

  std::printf("\n--- one traced request -------------------------------\n");
  if (first_trace == nullptr) {
    std::printf("no request was traced\n");
  } else {
    std::fputs(first_trace->ToString().c_str(), stdout);
  }

  if (explain) {
    // One Ext-JOB query, served by the same server, executed with
    // profiling on: the tree shows where the estimator's predictions and
    // the executor's actuals diverge (per-node Q-error).
    std::printf("\n--- EXPLAIN ANALYZE (one Ext-JOB query) --------------\n");
    const Query* ext = nullptr;
    for (const Query& q : env.ext_workload.queries()) {
      if (q.num_relations() >= 4 && q.num_relations() <= 6) {
        ext = &q;
        break;
      }
    }
    if (ext == nullptr && !env.ext_workload.queries().empty()) {
      ext = &env.ext_workload.queries().front();
    }
    if (ext == nullptr) {
      std::printf("no Ext-JOB queries in this environment\n");
    } else {
      auto served = server.Optimize(*ext);
      if (!served.ok()) {
        std::fprintf(stderr, "Optimize: %s\n",
                     served.status().ToString().c_str());
        return 1;
      }
      Executor exec(env.db.get());
      auto analyzed = introspect::ExplainAnalyze(exec, *ext, served->plan,
                                                 env.estimator.get());
      if (!analyzed.ok()) {
        std::fprintf(stderr, "ExplainAnalyze: %s\n",
                     analyzed.status().ToString().c_str());
        return 1;
      }
      std::fputs(analyzed->ToText().c_str(), stdout);
    }
  }

  if (!json_path.empty()) {
    Status status = obs::WriteJsonFile(snapshot, json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %zu series to %s\n", snapshot.metrics.size(),
                json_path.c_str());
  }
  return 0;
}
