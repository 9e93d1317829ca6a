// Serving throughput: the plan-cache-backed OptimizerServer vs planning
// every request from scratch, on a replayed JOB-like workload with Zipf
// query popularity at 16 concurrent clients.
//
// Acceptance gates (the binary exits non-zero when one fails, so CI can run
// it as a smoke step):
//   1. cached serving sustains >= 5x the requests/sec of the from-scratch
//      baseline at the same concurrency;
//   2. cached plans are bitwise identical (plan fingerprints) to a fresh
//      single-threaded beam search at the same stats_version;
//   3. after a stats bump, no request is ever served a plan from the old
//      stats_version.
//
//   ./build/bench/bench_serving_throughput [--scale=S] [--threads=N] [--smoke]
//
// --smoke shrinks data scale, beam width, and request counts to fit a ~1s
// budget (CI, including under TSan, runs this mode).
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "src/introspect/statusz.h"
#include "src/obs/health.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/query_fingerprint.h"
#include "src/serving/replay_driver.h"

namespace balsa {
namespace {

struct ServingConfig {
  bool smoke = false;
  double scale = 0.25;
  int clients = 16;
  int scratch_requests_per_client = 8;
  int cached_requests_per_client = 150;
  int beam_size = 10;
  int top_k = 5;
  /// Skip queries joining more than this many relations (keeps the
  /// from-scratch baseline's wall time bounded; the served set is still
  /// dozens of distinct fingerprints).
  int max_relations = 10;
};

int Run(const ServingConfig& config, const BenchFlags& flags) {
  std::printf("building JOB-like env (scale %.2f) ...\n", config.scale);
  const std::unique_ptr<Env> env_owner =
      bench::MustMakeEnv(WorkloadKind::kJobTrainAll, flags);
  Env& env = *env_owner;

  Featurizer featurizer(&env.schema(), env.estimator.get());
  ValueNetwork network(bench::ServingNetConfig(featurizer));

  const std::vector<const Query*> queries =
      bench::QueriesUpTo(env, config.max_relations);
  std::printf("serving %zu of %d JOB-like queries at %d clients\n",
              queries.size(), env.workload.num_queries(), config.clients);

  OptimizerServerOptions server_options;
  server_options.planner.beam_size = config.beam_size;
  server_options.planner.top_k = config.top_k;

  auto make_server = [&](bool enable_cache) {
    OptimizerServerOptions options = server_options;
    if (enable_cache) {
      // The measured server runs fully instrumented: metrics on the default
      // registry (dumped by --metrics-json) and 1-in-16 request tracing for
      // the stage breakdown below. The scratch twin stays unattached so the
      // two servers' series don't merge.
      options.metrics = &obs::MetricsRegistry::Default();
      options.trace.sample_every = 16;
    } else {
      options.cache.shard_capacity = 0;  // every request misses
      options.coalesce_misses = false;   // and plans for itself
    }
    return std::make_unique<OptimizerServer>(&env.schema(), &featurizer,
                                             &network, env.oracle.get(),
                                             options);
  };

  ReplayOptions replay;
  replay.num_clients = config.clients;
  replay.zipf_s = 0.9;
  replay.seed = 17;

  // --- Baseline: plan every request from scratch -------------------------
  auto scratch_server = make_server(/*enable_cache=*/false);
  replay.requests_per_client = config.scratch_requests_per_client;
  auto scratch = ReplayWorkload(scratch_server.get(), queries, replay);
  BALSA_CHECK(scratch.ok(), scratch.status().ToString());

  // --- Cached serving ----------------------------------------------------
  // The monitor ticks over the registry while the replay runs, so the
  // statusz view below can report a real QPS over the measured window
  // (25ms ticks x 240 retained = six seconds).
  auto server = make_server(/*enable_cache=*/true);
  obs::HealthMonitorOptions monitor_options;
  monitor_options.interval_ms = 25;
  monitor_options.ring_capacity = 240;
  obs::HealthMonitor monitor(&obs::MetricsRegistry::Default(),
                             monitor_options);
  monitor.Start();
  replay.requests_per_client = config.cached_requests_per_client;
  auto cached = ReplayWorkload(server.get(), queries, replay);
  monitor.Stop();
  monitor.EvaluateOnce();  // close the window on the final totals
  BALSA_CHECK(cached.ok(), cached.status().ToString());

  TablePrinter table({"mode", "requests", "req/s", "hit rate", "p50 us",
                      "p95 us", "p99 us", "planned"});
  table.AddRow({"scratch", TablePrinter::Fmt(scratch->requests, 0),
                TablePrinter::Fmt(scratch->requests_per_sec, 1),
                TablePrinter::Fmt(scratch->hit_rate, 3),
                TablePrinter::Fmt(scratch->p50_us, 0),
                TablePrinter::Fmt(scratch->p95_us, 0),
                TablePrinter::Fmt(scratch->p99_us, 0),
                TablePrinter::Fmt(scratch->server.planned, 0)});
  table.AddRow({"cached", TablePrinter::Fmt(cached->requests, 0),
                TablePrinter::Fmt(cached->requests_per_sec, 1),
                TablePrinter::Fmt(cached->hit_rate, 3),
                TablePrinter::Fmt(cached->p50_us, 0),
                TablePrinter::Fmt(cached->p95_us, 0),
                TablePrinter::Fmt(cached->p99_us, 0),
                TablePrinter::Fmt(cached->server.planned, 0)});
  table.Print();

  PlanCache::Metrics totals = server->cache().Totals();
  std::printf(
      "cache: %zu entries, %lld hits, %lld misses, %lld coalesced, "
      "%lld lru-evicted, %lld stale-evicted across %d shards\n",
      totals.entries, static_cast<long long>(totals.hits),
      static_cast<long long>(cached->server.misses),
      static_cast<long long>(cached->server.coalesced),
      static_cast<long long>(totals.lru_evictions),
      static_cast<long long>(totals.stale_evictions),
      PlanCache::kNumShards);

  double speedup = scratch->requests_per_sec > 0
                       ? cached->requests_per_sec / scratch->requests_per_sec
                       : 0;
  std::printf("throughput: %.1f req/s scratch -> %.1f req/s cached "
              "(%.1fx)\n",
              scratch->requests_per_sec, cached->requests_per_sec, speedup);

  // Where the cached server's requests spent their time, from its sampled
  // traces: cache_lookup dominating beam_search is the plan cache working.
  obs::PrintStageBreakdown(*server->tracer());

  // The one-page health view the serving stack exposes (examples/statusz
  // renders the same thing for any running configuration).
  introspect::StatuszSources statusz;
  statusz.registry = &obs::MetricsRegistry::Default();
  statusz.monitor = &monitor;
  statusz.server = server.get();
  std::fputs(introspect::StatuszText(statusz).c_str(), stdout);

  bool ok = true;
  if (!cached->plans_consistent || !scratch->plans_consistent) {
    std::printf("FAIL: clients observed differing plans for one query\n");
    ok = false;
  }

  // Gate 2: cached plans == fresh beam search, bitwise (fingerprints).
  PlannerOptions fresh_options = server_options.planner;
  BeamSearchPlanner fresh(&env.schema(), &featurizer, &network,
                          fresh_options);
  int checked = 0;
  for (size_t i = 0; i < queries.size() && checked < 5; i += 7, ++checked) {
    auto served = server->Optimize(*queries[i]);
    BALSA_CHECK(served.ok(), served.status().ToString());
    auto direct = fresh.TopK(*queries[i]);
    BALSA_CHECK(direct.ok(), direct.status().ToString());
    if (served->plan.Fingerprint() != direct->plans[0].plan.Fingerprint()) {
      std::printf("FAIL: served plan for %s differs from fresh planning\n",
                  queries[i]->name().c_str());
      ok = false;
    }
  }

  // Gate 3: after a stats bump nothing from the old generation is served.
  int64_t old_version = server->stats_version();
  env.oracle->BumpGeneration();
  for (size_t i = 0; i < queries.size() && i < 8; ++i) {
    auto result = server->Optimize(*queries[i]);
    BALSA_CHECK(result.ok(), result.status().ToString());
    if (result->stats_version == old_version || result->cache_hit) {
      std::printf("FAIL: stale plan served after stats bump (%s)\n",
                  queries[i]->name().c_str());
      ok = false;
    }
  }

  if (speedup < 5.0) {
    std::printf("FAIL: speedup %.1fx below the 5x serving gate\n", speedup);
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS: all serving gates hold"
                         : "FAIL: serving gates violated");
  // Dump while the instrumented server is alive — destruction detaches its
  // series from the default registry.
  bench::DumpMetricsJsonIfRequested(flags);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace balsa

int main(int argc, char** argv) {
  using namespace balsa;
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  ServingConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  if (config.smoke) {
    // ~1s CI budget (TSan included): tiny data, narrow beams, small joins,
    // few requests. The gates are identical; only the sizes shrink.
    config.scale = 0.03;
    config.clients = 8;
    config.scratch_requests_per_client = 2;
    config.cached_requests_per_client = 25;
    config.beam_size = 3;
    config.top_k = 1;
    config.max_relations = 5;
  } else {
    config.scale = flags.scale;
    if (flags.threads > 0) config.clients = flags.threads;
  }
  // Make the header reflect what actually runs (--smoke overrides flags).
  flags.scale = config.scale;
  flags.threads = config.clients;
  bench::PrintHeader("Serving: plan-cache-backed optimizer server",
                     "no paper counterpart; north-star serving gate: >=5x "
                     "req/s at 16 clients vs from-scratch planning",
                     flags);
  std::printf(
      "serving config:%s %d clients, beam %d / top-%d, <=%d-relation "
      "queries, %d scratch + %d cached requests per client\n",
      config.smoke ? " (smoke)" : "", config.clients, config.beam_size,
      config.top_k, config.max_relations, config.scratch_requests_per_client,
      config.cached_requests_per_client);
  return Run(config, flags);
}
