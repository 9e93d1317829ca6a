// Observability overhead gate: serving throughput with the full metrics +
// tracing instrumentation attached must stay within 3% of the same server
// with recording disabled (obs::SetEnabled(false) turns every histogram
// record and sampling decision into a relaxed load plus a branch — the
// runtime equivalent of compiling the instrumentation out).
//
// Two workloads, each gated by bench::MeasurePairedRatio (paired
// alternating-order rounds, median ratio, bounded re-measurement):
//   1. the closed-loop serving replay (16 clients, Zipf popularity) that
//      bench_serving_throughput uses — the instrumentation's real context;
//   2. a single-thread cache-hit hammer on one hot query — the shortest
//      request path we serve, so per-request overhead is most visible.
//
// Acceptance gate (binary exits non-zero on failure, CI runs --smoke):
//   instrumented req/s >= 0.97x baseline on the replay and >= 0.90x on the
//   hammer (0.90x and 0.80x under TSan, whose instrumentation multiplies
//   atomic costs unevenly).
//
//   ./build/bench/bench_obs_overhead [--scale=S] [--threads=N] [--smoke]
//                                    [--metrics-json=PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/replay_driver.h"

namespace balsa {
namespace {

using bench::kTsanBuild;

struct OverheadConfig {
  bool smoke = false;
  double scale = 0.25;
  int clients = 16;
  int warm_requests_per_client = 30;
  int measure_requests_per_client = 5000;
  int hammer_iters = 200000;
  int rounds = 3;
  int beam_size = 10;
  int top_k = 5;
  int max_relations = 8;
};

double HammerRps(OptimizerServer* server, const Query& query, int iters) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    auto result = server->Optimize(query);
    BALSA_CHECK(result.ok(), result.status().ToString());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return seconds > 0 ? iters / seconds : 0;
}

int Run(const OverheadConfig& config, const BenchFlags& flags) {
  std::printf("building JOB-like env (scale %.2f) ...\n", config.scale);
  const std::unique_ptr<Env> env_owner =
      bench::MustMakeEnv(WorkloadKind::kJobTrainAll, flags);
  Env& env = *env_owner;

  Featurizer featurizer(&env.schema(), env.estimator.get());
  ValueNetwork network(bench::ServingNetConfig(featurizer));

  const std::vector<const Query*> queries =
      bench::QueriesUpTo(env, config.max_relations);

  OptimizerServerOptions base_options;
  base_options.planner.beam_size = config.beam_size;
  base_options.planner.top_k = config.top_k;

  // The instrumented server: every metric attached to the default registry
  // and 1-in-16 request tracing — the configuration a production deployment
  // would run. The baseline server attaches nothing and never samples; its
  // remaining record sites are neutralized per-phase by the kill switch.
  OptimizerServerOptions instrumented_options = base_options;
  instrumented_options.metrics = &obs::MetricsRegistry::Default();
  instrumented_options.trace.sample_every = 64;  // the production default
  auto instrumented = std::make_unique<OptimizerServer>(
      &env.schema(), &featurizer, &network, env.oracle.get(),
      instrumented_options);

  OptimizerServerOptions baseline_options = base_options;
  baseline_options.trace.sample_every = 0;
  auto baseline = std::make_unique<OptimizerServer>(
      &env.schema(), &featurizer, &network, env.oracle.get(),
      baseline_options);

  ReplayOptions replay;
  replay.num_clients = config.clients;
  replay.zipf_s = 0.9;
  replay.seed = 17;

  // Warm both caches so the measured phases serve the same hit-dominated
  // traffic (the path whose overhead the gate bounds).
  obs::SetEnabled(true);
  bench::ReplayRps(instrumented.get(), queries, replay,
                   config.warm_requests_per_client);
  obs::SetEnabled(false);
  bench::ReplayRps(baseline.get(), queries, replay,
                   config.warm_requests_per_client);

  // Each phase flips the kill switch for its side: the baseline runs with
  // recording disabled, the instrumented server with it enabled.
  const double replay_threshold = kTsanBuild ? 0.90 : 0.97;
  const double hammer_threshold = kTsanBuild ? 0.80 : 0.90;
  const int n = config.measure_requests_per_client;
  const bench::PairedRatio replay_gate = bench::MeasurePairedRatio(
      "replay", config.rounds, replay_threshold,
      [&] {
        obs::SetEnabled(false);
        return bench::ReplayRps(baseline.get(), queries, replay, n);
      },
      [&] {
        obs::SetEnabled(true);
        return bench::ReplayRps(instrumented.get(), queries, replay, n);
      });
  const Query& hot = *queries[0];
  const bench::PairedRatio hammer_gate = bench::MeasurePairedRatio(
      "hammer", config.rounds, hammer_threshold,
      [&] {
        obs::SetEnabled(false);
        return HammerRps(baseline.get(), hot, config.hammer_iters);
      },
      [&] {
        obs::SetEnabled(true);
        return HammerRps(instrumented.get(), hot, config.hammer_iters);
      });
  obs::SetEnabled(true);

  TablePrinter table({"workload", "baseline req/s", "instrumented req/s",
                      "median ratio"});
  table.AddRow({"replay (closed-loop)",
                TablePrinter::Fmt(Median(replay_gate.baseline), 1),
                TablePrinter::Fmt(Median(replay_gate.candidate), 1),
                TablePrinter::Fmt(replay_gate.ratio, 3)});
  table.AddRow({"cache-hit hammer (1 thread)",
                TablePrinter::Fmt(Median(hammer_gate.baseline), 1),
                TablePrinter::Fmt(Median(hammer_gate.candidate), 1),
                TablePrinter::Fmt(hammer_gate.ratio, 3)});
  table.Print();

  obs::PrintStageBreakdown(*instrumented->tracer());

  // The serving gate from the roadmap: the replay is real serving traffic,
  // so instrumentation must cost under 3% there. The hammer's all-hit
  // ~1us requests are a worst case no deployment resembles (every added
  // nanosecond is visible); it gets a looser bound that still catches an
  // accidentally heavy record site. TSan multiplies atomic costs unevenly,
  // so its thresholds relax further.
  bool ok = true;
  if (replay_gate.ratio < replay_threshold) {
    std::printf("FAIL: replay ratio %.3f below the %.2fx overhead gate\n",
                replay_gate.ratio, replay_threshold);
    ok = false;
  }
  if (hammer_gate.ratio < hammer_threshold) {
    std::printf("FAIL: hammer ratio %.3f below the %.2fx overhead gate\n",
                hammer_gate.ratio, hammer_threshold);
    ok = false;
  }
  std::printf("%s (thresholds: replay %.2fx, hammer %.2fx%s)\n",
              ok ? "PASS: instrumentation overhead within budget"
                 : "FAIL: instrumentation overhead exceeds budget",
              replay_threshold, hammer_threshold,
              kTsanBuild ? ", TSan build" : "");
  // Dump while the instrumented server is alive — its Registrations detach
  // everything from the default registry on destruction.
  bench::DumpMetricsJsonIfRequested(flags);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace balsa

int main(int argc, char** argv) {
  using namespace balsa;
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  OverheadConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  if (config.smoke) {
    config.scale = 0.03;
    config.clients = 8;
    config.warm_requests_per_client = 10;
    // TSan multiplies the cost of this atomic-heavy loop ~10x; shrink the
    // phases there to keep the CI smoke step inside its budget.
    config.measure_requests_per_client = kTsanBuild ? 2000 : 8000;
    config.hammer_iters = kTsanBuild ? 10000 : 50000;
    config.rounds = kTsanBuild ? 3 : 5;
    config.beam_size = 3;
    config.top_k = 1;
    // Keep full-size queries (unlike the throughput smoke): the gate is a
    // ratio, and shrinking the per-request work to nothing just measures
    // the instrumentation against an unrealistically cheap denominator.
    config.max_relations = 8;
  } else {
    config.scale = flags.scale;
    if (flags.threads > 0) config.clients = flags.threads;
  }
  flags.scale = config.scale;
  flags.threads = config.clients;
  bench::PrintHeader("Obs: instrumentation overhead on the serving path",
                     "no paper counterpart; gate: instrumented serving >= "
                     "0.97x of recording-disabled baseline",
                     flags);
  std::printf("overhead config:%s %d clients, %d rounds, %d measured "
              "requests/client, %d hammer iters, trace 1/64\n",
              config.smoke ? " (smoke)" : "", config.clients, config.rounds,
              config.measure_requests_per_client, config.hammer_iters);
  return Run(config, flags);
}
