// Statusz: stand up the instrumented serving stack, drive a short Zipf
// replay with the health monitor (the one obs ticker: rate rings plus SLO
// rules) and the flight recorder running, and print the one-page health
// dashboard — current QPS, per-outcome and per-stage latency percentiles
// (with p99 exemplar trace ids), alert states, plan-cache occupancy,
// storage state, and the slowest retained flight-recorder traces.
//
//   ./build/examples/statusz [requests_per_client] [--json]
//                            [--flight-jsonl=PATH] [--watch N]
//
// --json prints the same dashboard as one JSON object instead of text;
// --flight-jsonl exports every retained flight-recorder trace as JSONL —
// the one export format (feed it to scripts/trace_to_chrome.py for a
// Perfetto timeline). --watch N keeps a live replay running in the
// background and redraws the text page every N seconds until interrupted —
// the operator's `watch`-style view.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/env.h"
#include "src/introspect/statusz.h"
#include "src/model/value_network.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/replay_driver.h"

int main(int argc, char** argv) {
  using namespace balsa;
  int requests_per_client = 200;
  bool as_json = false;
  int watch_seconds = 0;
  std::string flight_jsonl;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (std::strncmp(argv[i], "--flight-jsonl=", 15) == 0) {
      flight_jsonl = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--watch") == 0 && i + 1 < argc) {
      watch_seconds = std::atoi(argv[++i]);
    } else {
      requests_per_client = std::atoi(argv[i]);
    }
  }
  if (requests_per_client < 1) requests_per_client = 1;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();

  std::fprintf(stderr, "Building a small JOB-like environment ...\n");
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
  options.metrics = &registry;
  // Tail-based retention instead of head sampling: every completion reports
  // to the recorder, which keeps the slowest ones by construction (misses
  // carry span-filled shells; hits materialize one only when retained).
  options.trace.sample_every = 0;
  options.flight_recorder.enabled = true;
  options.flight_recorder.top_k = 8;
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

  // One ticker feeds statusz's rates and judges two demo SLO rules: a
  // tail-latency rule on the miss path (tight enough to trip during the
  // cold-cache phase of the replay) and a queue-saturation rule on the
  // planning pool. 50ms ticks x 100 retained = a five-second rate window.
  obs::HealthMonitorOptions health_options;
  health_options.interval_ms = 50;
  health_options.ring_capacity = 100;
  obs::HealthMonitor health(&registry, health_options);
  {
    obs::HealthRule p99;
    p99.name = "miss-p99";
    p99.kind = obs::RuleKind::kWindowP99Above;
    p99.metric = "serving.request_us{outcome=miss}";
    p99.threshold = 2000;
    p99.clear_ticks = 2;
    health.AddRule(p99);
    obs::HealthRule queue;
    queue.name = "pool-saturated";
    queue.kind = obs::RuleKind::kGaugeAbove;
    queue.metric = "runtime.pool.queue_depth";
    queue.threshold = 32;
    health.AddRule(queue);
  }
  health.Start();

  introspect::StatuszSources sources;
  sources.registry = &registry;
  sources.server = &server;
  sources.monitor = &health;

  ReplayOptions replay;
  replay.num_clients = 8;
  replay.requests_per_client = requests_per_client;
  replay.zipf_s = 0.9;
  replay.seed = 17;

  if (watch_seconds > 0) {
    // Live mode: a background thread replays the workload in a loop while
    // the foreground clears and redraws the page every N seconds. Runs
    // until the replay budget (16 rounds) is exhausted or ^C.
    std::atomic<bool> done{false};
    std::thread driver([&] {
      for (int round = 0; round < 16 && !done.load(); ++round) {
        auto r = ReplayWorkload(&server, queries, replay);
        if (!r.ok()) break;
      }
      done.store(true);
    });
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::seconds(watch_seconds));
      // ANSI clear-screen + home, the same trick `watch(1)` uses.
      std::fputs("\x1b[2J\x1b[H", stdout);
      std::fputs(introspect::StatuszText(sources).c_str(), stdout);
      std::fflush(stdout);
    }
    driver.join();
  } else {
    std::fprintf(stderr, "Serving %d requests x 8 clients over %zu queries\n",
                 requests_per_client, queries.size());
    auto report = ReplayWorkload(&server, queries, replay);
    if (!report.ok()) {
      std::fprintf(stderr, "replay: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "replay: %.1f req/s, hit rate %.3f, p50/p95/p99 %.0f/%.0f/"
                 "%.0f us\n\n",
                 report->requests_per_sec, report->hit_rate, report->p50_us,
                 report->p95_us, report->p99_us);
  }
  health.Stop();
  health.EvaluateOnce();  // close the window on the final totals

  std::string page = as_json ? introspect::StatuszJson(sources)
                             : introspect::StatuszText(sources);
  std::fputs(page.c_str(), stdout);
  if (as_json) std::fputc('\n', stdout);

  if (!flight_jsonl.empty()) {
    Status status = server.flight_recorder()->WriteJsonlFile(flight_jsonl);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu retained traces to %s\n",
                 server.flight_recorder()->Retained().size(),
                 flight_jsonl.c_str());
  }
  return 0;
}
