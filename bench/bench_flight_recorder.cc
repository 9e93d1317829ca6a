// Flight-recorder gate: tail-based trace retention must be cheap enough to
// leave always-on, and must actually catch the tail it promises to catch.
//
// Five acceptance gates (binary exits non-zero on any failure; CI runs
// --smoke on both the release and TSan jobs):
//   1. overhead: a server with the flight recorder armed (every request
//      carries a trace shell, retention decided at completion) sustains
//      >= 0.97x the replay throughput of an unarmed server (0.90x under
//      TSan). Paired alternating-order rounds, median ratio, bounded
//      re-measurement (bench::MeasurePairedRatio).
//   2. tail retention: after a Zipf replay, the store's max retained
//      latency equals ReplayReport::max_us *exactly* — the slowest request
//      is retained by construction, never sampled away.
//   3. outcome retention: a row-capped execution (the paper's "disastrous
//      plan" signal) is promoted into the retained set and marked capped.
//   4. exemplars: at least one per-outcome latency histogram carries a p99
//      bucket exemplar that resolves to a retained trace whose span union
//      is consistent with the recorded latency.
//   5. SLO health: a window-p99 rule over the miss histogram fires on an
//      injected miss storm (stats-generation bump) and resolves after the
//      cache re-warms — deterministic EvaluateOnce ticks, no clocks.
//
//   ./build/bench/bench_flight_recorder [--scale=S] [--threads=N] [--smoke]
//                                       [--metrics-json=PATH]
//                                       [--flight-jsonl=PATH]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/exec/executor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/replay_driver.h"

namespace balsa {
namespace {

using bench::kTsanBuild;

struct FlightConfig {
  bool smoke = false;
  double scale = 0.25;
  int clients = 16;
  int warm_requests_per_client = 30;
  int measure_requests_per_client = 5000;
  int functional_requests_per_client = 150;
  int rounds = 3;
  int beam_size = 10;
  int top_k = 5;
  int max_relations = 8;
};

bool GateCheck(const char* name, bool ok, bool* all_ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", name);
  if (!ok) *all_ok = false;
  return ok;
}

int Run(const FlightConfig& config, const BenchFlags& flags,
        const std::string& flight_jsonl) {
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
  base_options.trace.sample_every = 0;  // no head sampling in either server

  ReplayOptions replay;
  replay.num_clients = config.clients;
  replay.zipf_s = 0.9;
  replay.seed = 17;

  bool all_ok = true;

  // ---- Gate 1: overhead. Armed (flight recorder on, every request gets a
  // trace shell + completion decision + pool wait stamps) vs unarmed (no
  // recorder, no shells). Neither attaches a registry, so the ratio
  // isolates exactly what the flight recorder adds.
  OptimizerServerOptions armed_options = base_options;
  armed_options.flight_recorder.enabled = true;
  auto armed = std::make_unique<OptimizerServer>(
      &env.schema(), &featurizer, &network, env.oracle.get(), armed_options);
  auto unarmed = std::make_unique<OptimizerServer>(
      &env.schema(), &featurizer, &network, env.oracle.get(), base_options);

  bench::ReplayRps(armed.get(), queries, replay,
                   config.warm_requests_per_client);
  bench::ReplayRps(unarmed.get(), queries, replay,
                   config.warm_requests_per_client);

  const double overhead_threshold = kTsanBuild ? 0.90 : 0.97;
  const int n = config.measure_requests_per_client;
  const bench::PairedRatio overhead = bench::MeasurePairedRatio(
      "overhead", config.rounds, overhead_threshold,
      [&] { return bench::ReplayRps(unarmed.get(), queries, replay, n); },
      [&] { return bench::ReplayRps(armed.get(), queries, replay, n); });

  TablePrinter table({"configuration", "req/s (median)", "ratio"});
  table.AddRow(
      {"unarmed", TablePrinter::Fmt(Median(overhead.baseline), 1), "1.000"});
  table.AddRow({"flight recorder armed",
                TablePrinter::Fmt(Median(overhead.candidate), 1),
                TablePrinter::Fmt(overhead.ratio, 3)});
  table.Print();
  std::printf("armed store after measurement: %lld completions\n",
              static_cast<long long>(armed->flight_recorder()->completions()));
  armed.reset();
  unarmed.reset();

  // ---- Functional gates run on a fresh armed server with metrics
  // attached (the production configuration), against a single replay whose
  // report the assertions compare with.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  OptimizerServerOptions func_options = base_options;
  func_options.metrics = &registry;
  func_options.flight_recorder.enabled = true;
  // Deep top-K: the functional replay's cold phase produces on the order of
  // a hundred misses, and retaining all of them keeps every p99-bucket
  // exemplar resolvable (no top-K churn can evict the tagged trace).
  func_options.flight_recorder.top_k = 128;
  OptimizerServer func(&env.schema(), &featurizer, &network, env.oracle.get(),
                       func_options);

  // Hold one query out of the replay: gate 3 serves it cold afterwards, so
  // its first Optimize is a genuine miss that carries a span-filled shell.
  const Query* victim = queries[0];
  for (const Query* q : queries) {
    if (q->num_relations() > victim->num_relations()) victim = q;
  }
  std::vector<const Query*> replay_queries;
  for (const Query* q : queries) {
    if (q != victim) replay_queries.push_back(q);
  }

  replay.requests_per_client = config.functional_requests_per_client;
  auto report = ReplayWorkload(&func, replay_queries, replay);
  BALSA_CHECK(report.ok(), report.status().ToString());
  const obs::TraceStore& store = *func.flight_recorder();

  std::printf("\nfunctional replay: %lld requests, hit rate %.3f, "
              "p99 %.0fus, max %.0fus\n",
              static_cast<long long>(report->requests), report->hit_rate,
              report->p99_us, report->max_us);
  const obs::TraceStore::Stats stats = store.stats();
  std::printf("flight recorder: %lld completions -> %lld top-k + %lld "
              "outcome + %lld reservoir retained, %lld evicted\n\n",
              static_cast<long long>(stats.completions),
              static_cast<long long>(stats.retained_top_k),
              static_cast<long long>(stats.retained_outcome),
              static_cast<long long>(stats.retained_reservoir),
              static_cast<long long>(stats.evicted));

  std::printf("gates:\n");
  GateCheck("overhead: armed replay within budget of unarmed",
            overhead.ratio >= overhead_threshold, &all_ok);

  // Gate 2: the slowest request of the replay is retained, exactly. Both
  // sides of the comparison are the same OptimizeResult::serve_micros
  // double, so equality is bitwise, not approximate.
  GateCheck("completions: store saw every replay request",
            stats.completions == report->requests, &all_ok);
  obs::RetainedTrace top;
  const bool have_top = store.MaxRetained(&top);
  GateCheck("tail: max retained latency == ReplayReport::max_us",
            have_top && top.latency_us == report->max_us, &all_ok);
  if (have_top) {
    std::printf("        slowest: trace #%llu %.0fus [%s] %s\n",
                static_cast<unsigned long long>(top.trace_id), top.latency_us,
                top.outcome, top.query_name.c_str());
  }

  // Gate 4 (before the row-cap execution, while every retained trace holds
  // only serve-path spans): a p99 bucket exemplar resolves to a retained
  // trace and its span union does not exceed the recorded latency by more
  // than scheduling slack.
  int resolved_exemplars = 0;
  bool spans_consistent = true;
  const obs::RegistrySnapshot snap = registry.Snapshot();
  for (const char* outcome : {"hit", "miss", "coalesced"}) {
    const std::string name =
        std::string("serving.request_us{outcome=") + outcome + "}";
    const obs::MetricValue* m = snap.Find(name);
    if (m == nullptr || m->histogram.count == 0) continue;
    const uint64_t exemplar = m->histogram.PercentileExemplar(99);
    if (exemplar == 0) continue;
    obs::RetainedTrace entry;
    if (!store.FindTrace(exemplar, &entry)) continue;  // evicted: tolerated
    const double union_us = entry.trace->SpanUnionMicros();
    // Spans are timed inside the request window; the union may exceed the
    // recorded latency only by clock skew, never structurally.
    if (union_us > entry.latency_us * 1.25 + 200.0) spans_consistent = false;
    std::printf("        p99 exemplar [%s]: trace #%llu, latency %.0fus, "
                "span union %.0fus (%zu spans)\n",
                outcome, static_cast<unsigned long long>(exemplar),
                entry.latency_us, union_us, entry.trace->spans().size());
    ++resolved_exemplars;
  }
  GateCheck("exemplars: >= 1 p99 bucket resolves to a retained trace",
            resolved_exemplars >= 1, &all_ok);
  GateCheck("exemplars: span union consistent with recorded latency",
            spans_consistent, &all_ok);

  // Gate 3: execute one served plan under a tiny row cap; the capped
  // profile must promote the request's trace into the retained set. The
  // victim was held out of the replay, so this is a cold miss and the
  // result carries its span-filled shell.
  auto served = func.Optimize(*victim);
  BALSA_CHECK(served.ok(), served.status().ToString());
  BALSA_CHECK(served->trace != nullptr, "armed server must hand out a trace");
  ExecutorOptions exec_options;
  exec_options.row_cap = 8;  // far below any multi-join's intermediates
  Executor executor(env.db.get(), exec_options);
  ExecutionProfile profile;
  {
    obs::ScopedTraceContext scope(func.tracer(), served->trace);
    auto executed = executor.ExecuteProfiled(*victim, served->plan, &profile);
    BALSA_CHECK(executed.ok(), executed.status().ToString());
  }
  BALSA_CHECK(profile.AnyCapped(), "row cap of 8 must truncate the join");
  func.RecordExecution(*victim, *served, profile);
  obs::RetainedTrace capped_entry;
  const bool capped_found =
      store.FindTrace(served->trace->id(), &capped_entry);
  GateCheck("row cap: capped execution promoted into the retained set",
            capped_found && capped_entry.capped, &all_ok);

  // Gate 5: SLO health. A window-p99 rule over the miss histogram judges
  // per-tick deltas, so it must stay quiet on the warmed cache, fire on the
  // miss storm a stats-generation bump injects, and resolve once the same
  // traffic is re-warmed (a cumulative p99 would never let go).
  obs::HealthMonitor health(&registry);
  obs::HealthRule rule;
  rule.name = "miss-p99";
  rule.kind = obs::RuleKind::kWindowP99Above;
  rule.metric = "serving.request_us{outcome=miss}";
  rule.threshold = 50;  // any cold beam search is far above 50us
  health.AddRule(rule);

  health.EvaluateOnce();  // baseline tick: first tick judges empty deltas
  health.EvaluateOnce();  // consume the functional replay's window
  const bool quiet_before = !health.IsFiring("miss-p99");

  env.oracle->BumpGeneration();  // every cached plan becomes unreachable
  ReplayOptions storm = replay;
  storm.requests_per_client = std::max(10, replay.requests_per_client / 4);
  auto storm_report = ReplayWorkload(&func, queries, storm);
  BALSA_CHECK(storm_report.ok(), storm_report.status().ToString());
  health.EvaluateOnce();
  const bool fired = health.IsFiring("miss-p99");

  // The re-warm replay reuses the storm's options: client sequences are a
  // pure function of (seed, client), so it touches exactly the query set
  // the storm just re-cached — zero misses, and the rule must resolve.
  auto rewarm_report = ReplayWorkload(&func, queries, storm);
  BALSA_CHECK(rewarm_report.ok(), rewarm_report.status().ToString());
  health.EvaluateOnce();
  const bool resolved = !health.IsFiring("miss-p99");

  GateCheck("health: quiet on the warmed cache", quiet_before, &all_ok);
  GateCheck("health: fires on the injected miss storm", fired, &all_ok);
  GateCheck("health: resolves after the cache re-warms", resolved, &all_ok);
  int fire_events = 0, resolve_events = 0;
  for (const obs::AlertEvent& event : health.Events()) {
    (event.firing ? fire_events : resolve_events) += 1;
  }
  GateCheck("health: transition log holds the fire and the resolve",
            fire_events >= 1 && resolve_events >= 1, &all_ok);

  // Queue-wait profiling rides along: the armed server stamps every
  // planning-pool task, so after real misses the wait histogram is live.
  GateCheck("pool: queue-wait histogram recorded planning-pool tasks",
            func.pool_wait_histogram().Count() > 0, &all_ok);

  if (!flight_jsonl.empty()) {
    Status status = store.WriteJsonlFile(flight_jsonl);
    BALSA_CHECK(status.ok(), status.ToString());
    std::printf("\nflight recorder: %zu retained traces -> %s\n",
                store.Retained().size(), flight_jsonl.c_str());
  }

  std::printf("\n%s (overhead threshold %.2fx%s)\n",
              all_ok ? "PASS: flight recorder cheap, tail retained, alerts "
                       "round-trip"
                     : "FAIL: see gate lines above",
              overhead_threshold, kTsanBuild ? ", TSan build" : "");
  // Dump while `func` is alive — its Registrations detach on destruction.
  bench::DumpMetricsJsonIfRequested(flags);
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace balsa

int main(int argc, char** argv) {
  using namespace balsa;
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  FlightConfig config;
  std::string flight_jsonl;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
    if (std::strncmp(argv[i], "--flight-jsonl=", 15) == 0) {
      flight_jsonl = argv[i] + 15;
    }
  }
  if (config.smoke) {
    config.scale = 0.03;
    config.clients = 8;
    config.warm_requests_per_client = 10;
    // TSan multiplies the cost of the atomic-heavy replay loop ~10x;
    // shrink the measured phases there to keep CI inside its budget.
    config.measure_requests_per_client = kTsanBuild ? 1500 : 6000;
    config.functional_requests_per_client = kTsanBuild ? 60 : 120;
    config.rounds = kTsanBuild ? 3 : 5;
    config.beam_size = 3;
    config.top_k = 1;
    // Full-size queries even in smoke: the overhead gate is a ratio, and an
    // unrealistically cheap denominator would inflate it.
    config.max_relations = 8;
  } else {
    config.scale = flags.scale;
    if (flags.threads > 0) config.clients = flags.threads;
  }
  flags.scale = config.scale;
  flags.threads = config.clients;
  bench::PrintHeader(
      "Obs: flight recorder — tail retention, exemplars, SLO health",
      "no paper counterpart; gates: armed serving >= 0.97x unarmed, "
      "max-latency + capped requests retained, p99 exemplars resolve, "
      "health rule fires and resolves",
      flags);
  std::printf("flight config:%s %d clients, %d rounds, %d measured "
              "requests/client, %d functional requests/client\n",
              config.smoke ? " (smoke)" : "", config.clients, config.rounds,
              config.measure_requests_per_client,
              config.functional_requests_per_client);
  return Run(config, flags, flight_jsonl);
}
