// Introspection overhead + fidelity gate for the EXPLAIN ANALYZE stack.
//
// Two acceptance gates (binary exits non-zero when one fails; CI runs
// --smoke):
//   1. Executor::ExecuteProfiled with profiling on >= 0.90x the throughput
//      of plain Execute on the same plans (0.75x under TSan) — per-node
//      clocks and counter sums must not distort what they measure;
//   2. on a 4-relation Ext-JOB plan, every node's actual_rows in
//      ExplainAnalyze equals Executor::Execute(query, plan, node_idx)
//      ->NumRows() bitwise, and the root intermediate under profiling is
//      bitwise identical to the unprofiled one — the profile observes the
//      execution, it never changes it.
//
// The serving side of introspection — request retention in the flight
// recorder — is gated by bench_flight_recorder (armed serving >= 0.97x an
// unarmed server).
//
//   ./build/bench/bench_explain_overhead [--scale=S] [--smoke]
//                                        [--metrics-json=PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/exec/executor.h"
#include "src/introspect/explain.h"

namespace balsa {
namespace {

using bench::kTsanBuild;

struct ExplainConfig {
  bool smoke = false;
  double scale = 0.25;
  int exec_iters = 40;
  int rounds = 3;
  int max_relations = 8;
};

/// Plans executed per second over a fixed (query, plan) set.
double ExecRps(const Executor& executor,
               const std::vector<std::pair<const Query*, Plan>>& work,
               int iters, bool profiled) {
  ExecutionProfile profile;
  int executed = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    for (const auto& [query, plan] : work) {
      StatusOr<Intermediate> result =
          profiled ? executor.ExecuteProfiled(*query, plan, &profile)
                   : executor.Execute(*query, plan);
      BALSA_CHECK(result.ok(), result.status().ToString());
      ++executed;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return seconds > 0 ? executed / seconds : 0;
}

/// Collects the arena indices the plan's tree actually contains.
void CollectNodes(const Plan& plan, int idx, std::vector<int>* out) {
  out->push_back(idx);
  const PlanNode& n = plan.node(idx);
  if (n.is_join) {
    CollectNodes(plan, n.left, out);
    CollectNodes(plan, n.right, out);
  }
}

int Run(const ExplainConfig& config, const BenchFlags& flags) {
  std::printf("building JOB-like env (scale %.2f) ...\n", config.scale);
  const std::unique_ptr<Env> env_owner =
      bench::MustMakeEnv(WorkloadKind::kJobTrainAll, flags);
  Env& env = *env_owner;

  const std::vector<const Query*> queries =
      bench::QueriesUpTo(env, config.max_relations);

  bool ok = true;

  // --- Gate 1: ExecuteProfiled vs Execute --------------------------------
  // A handful of expert plans over small-to-mid queries; both calls read
  // the executor's one pinned snapshot, so the measured work is identical.
  std::vector<std::pair<const Query*, Plan>> work;
  for (size_t i = 0; i < queries.size() && work.size() < 6; i += 5) {
    auto planned = env.pg_expert->Optimize(*queries[i]);
    BALSA_CHECK(planned.ok(), planned.status().ToString());
    work.emplace_back(queries[i], planned->plan);
  }
  Executor executor(env.db.get());

  const double exec_threshold = kTsanBuild ? 0.75 : 0.90;
  ExecRps(executor, work, 2, false);  // warm both paths
  ExecRps(executor, work, 2, true);
  const bench::PairedRatio exec = bench::MeasurePairedRatio(
      "exec", config.rounds, exec_threshold,
      [&] { return ExecRps(executor, work, config.exec_iters, false); },
      [&] { return ExecRps(executor, work, config.exec_iters, true); });

  TablePrinter table({"gate", "baseline/s", "candidate/s", "median ratio",
                      "threshold"});
  table.AddRow({"ExecuteProfiled",
                TablePrinter::Fmt(Median(exec.baseline), 1),
                TablePrinter::Fmt(Median(exec.candidate), 1),
                TablePrinter::Fmt(exec.ratio, 3),
                TablePrinter::Fmt(exec_threshold, 2)});
  table.Print();

  if (exec.ratio < exec_threshold) {
    std::printf("FAIL: profiling costs %.1f%% of executor throughput\n",
                (1 - exec.ratio) * 100);
    ok = false;
  }

  // --- Gate 2: ExplainAnalyze fidelity on a 4-relation Ext-JOB plan ------
  const Query* ext_query = nullptr;
  for (const Query& q : env.ext_workload.queries()) {
    if (q.num_relations() == 4) {
      ext_query = &q;
      break;
    }
  }
  if (ext_query == nullptr) {
    // Tiny smoke envs may trim Ext-JOB; the gate still runs, on JOB.
    for (const Query* q : queries) {
      if (q->num_relations() == 4) {
        ext_query = q;
        break;
      }
    }
  }
  BALSA_CHECK(ext_query != nullptr, "no 4-relation query available");
  auto ext_planned = env.pg_expert->Optimize(*ext_query);
  BALSA_CHECK(ext_planned.ok(), ext_planned.status().ToString());
  const Plan& ext_plan = ext_planned->plan;

  auto explain = introspect::ExplainAnalyze(executor, *ext_query, ext_plan,
                                            env.estimator.get());
  BALSA_CHECK(explain.ok(), explain.status().ToString());

  std::vector<int> node_indices;
  CollectNodes(ext_plan, ext_plan.root(), &node_indices);
  int checked = 0;
  for (int idx : node_indices) {
    auto sub = executor.Execute(*ext_query, ext_plan, idx);
    BALSA_CHECK(sub.ok(), sub.status().ToString());
    const introspect::ExplainNode* node = explain->node(idx);
    if (node == nullptr || !node->analyzed) {
      std::printf("FAIL: node %d missing from the analyzed tree\n", idx);
      ok = false;
      continue;
    }
    if (node->actual_rows != sub->NumRows()) {
      std::printf("FAIL: node %d actual_rows %lld != Execute's %lld\n", idx,
                  static_cast<long long>(node->actual_rows),
                  static_cast<long long>(sub->NumRows()));
      ok = false;
    }
    ++checked;
  }

  // Profiling must not perturb results: the profiled root intermediate is
  // bitwise identical to the unprofiled one.
  auto plain_root = executor.Execute(*ext_query, ext_plan);
  ExecutionProfile root_profile;
  auto prof_root = executor.ExecuteProfiled(*ext_query, ext_plan,
                                            &root_profile);
  BALSA_CHECK(plain_root.ok() && prof_root.ok(), "root execution failed");
  if (plain_root->rels != prof_root->rels ||
      plain_root->tuples != prof_root->tuples ||
      plain_root->capped != prof_root->capped) {
    std::printf("FAIL: profiled execution changed the result\n");
    ok = false;
  }

  std::printf("\nExplainAnalyze on %s (%d nodes, all actuals bitwise-checked "
              "against per-node Execute):\n",
              ext_query->name().c_str(), checked);
  std::fputs(explain->ToText().c_str(), stdout);

  std::printf("%s\n", ok ? "PASS: introspection overhead and fidelity gates "
                           "hold"
                         : "FAIL: introspection gates violated");
  bench::DumpMetricsJsonIfRequested(flags);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace balsa

int main(int argc, char** argv) {
  using namespace balsa;
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  ExplainConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  if (config.smoke) {
    config.scale = 0.03;
    config.exec_iters = kTsanBuild ? 5 : 15;
    config.rounds = kTsanBuild ? 3 : 5;
    // Full-size queries: the overhead gate is a ratio, and shrinking
    // per-plan work just measures overhead against an unrealistic
    // denominator.
    config.max_relations = 8;
  } else {
    config.scale = flags.scale;
  }
  flags.scale = config.scale;
  bench::PrintHeader(
      "Introspect: EXPLAIN ANALYZE overhead and fidelity",
      "no paper counterpart; gates: profiling >= 0.90x execution, "
      "actuals bitwise-equal",
      flags);
  std::printf("explain config:%s %d rounds, %d exec iters\n",
              config.smoke ? " (smoke)" : "", config.rounds,
              config.exec_iters);
  return Run(config, flags);
}
