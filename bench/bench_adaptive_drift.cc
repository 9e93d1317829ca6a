// Adaptive statistics under data drift: the closed loop from a write-heavy
// change stream to self-invalidating serving. Two identical JOB-like
// environments replay the same Zipf traffic while the same drift scenario
// (row growth + domain shift + FK re-skew on title/movie_info) streams in;
// each runs a background ReanalyzeScheduler — one with the post-bump top-K
// re-warm enabled, one without.
//
// Acceptance gates (exit non-zero on violation; CI runs --smoke, TSan too):
//   1. drift is detected and re-ANALYZEd *automatically* (background
//      scheduler: bumps >= 1, merges/rescans >= 1) in both environments;
//   2. cardinality error: per drifted table, the geometric-mean Q-error of
//      the post-bump statistics (vs scan-measured truth) is lower than that
//      of the stale pre-drift statistics;
//   3. zero stale plans after the bump: every request of the post-bump
//      replay is served at the new stats_version;
//   4. the re-warm measurably cuts the post-bump miss spike: the rewarm-on
//      environment runs strictly fewer post-bump beam searches and starts
//      with cache hits on the hottest queries;
//   5. writer-thread-count invariance: the two environments ingest with
//      different writer counts, yet drift scores and the merged statistics
//      they install are bitwise identical.
//
//   ./build/bench/bench_adaptive_drift [--scale=S] [--threads=N] [--smoke]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/adaptive/reanalyze_scheduler.h"
#include "src/plan/query_builder.h"
#include "src/serving/replay_driver.h"
#include "src/stats/incremental_analyze.h"
#include "src/stats/swappable_estimator.h"
#include "src/workloads/drift_scenario.h"

namespace balsa {
namespace {

struct DriftBenchConfig {
  bool smoke = false;
  double scale = 0.25;
  int clients = 8;
  int warm_requests_per_client = 60;
  int post_requests_per_client = 60;
  int beam_size = 8;
  int top_k = 3;
  int max_relations = 8;
  int rewarm_top_k = 8;
  double scheduler_interval_ms = 25;
};

/// One environment's adaptive serving stack.
struct Stack {
  std::unique_ptr<Env> env;
  std::shared_ptr<SwappableEstimator> estimator;
  std::unique_ptr<Featurizer> featurizer;
  std::unique_ptr<ValueNetwork> network;
  std::unique_ptr<ChangeLog> log;
  std::unique_ptr<OptimizerServer> server;
  std::unique_ptr<ReanalyzeScheduler> scheduler;
  std::vector<const Query*> queries;
};

Stack MakeStack(const DriftBenchConfig& config, bool rewarm) {
  Stack stack;
  EnvOptions env_options;
  env_options.data_scale = config.scale;
  auto env = MakeEnv(WorkloadKind::kJobTrainAll, env_options);
  BALSA_CHECK(env.ok(), env.status().ToString());
  stack.env = std::move(env).value();

  stack.estimator = std::make_shared<SwappableEstimator>(
      stack.env->base_estimator);
  stack.featurizer = std::make_unique<Featurizer>(&stack.env->schema(),
                                                  stack.estimator.get());
  stack.network =
      std::make_unique<ValueNetwork>(bench::ServingNetConfig(*stack.featurizer));

  stack.log = std::make_unique<ChangeLog>(stack.env->db.get());
  const std::vector<TableStats>& stats = stack.env->base_estimator->stats();
  for (int t = 0; t < stack.env->schema().num_tables(); ++t) {
    stack.log->SetAnchor(t, MakeTableAnchor(stats[static_cast<size_t>(t)]));
  }

  OptimizerServerOptions server_options;
  server_options.planner.beam_size = config.beam_size;
  server_options.planner.top_k = config.top_k;
  stack.server = std::make_unique<OptimizerServer>(
      &stack.env->schema(), stack.featurizer.get(), stack.network.get(),
      stack.env->oracle.get(), server_options);

  ReanalyzeSchedulerOptions scheduler_options;
  scheduler_options.check_interval_ms = config.scheduler_interval_ms;
  scheduler_options.rewarm_top_k = rewarm ? config.rewarm_top_k : 0;
  stack.scheduler = std::make_unique<ReanalyzeScheduler>(
      stack.env->db.get(), stack.log.get(), stack.env->oracle.get(),
      stack.estimator.get(), stack.server.get(), scheduler_options);

  stack.queries = bench::QueriesUpTo(*stack.env, config.max_relations);
  return stack;
}

/// Geometric-mean Q-error of `estimator`'s single-table estimates on
/// `table` against scan-measured truth: the unfiltered row count plus an
/// equality probe per sampled value of the first attribute column.
double TableQError(const Stack& stack, const CardinalityEstimator& estimator,
                   int table) {
  const Schema& schema = stack.env->schema();
  const TableDef& def = schema.table(table);
  // Pin one snapshot: truth probes stay consistent even if a writer races.
  const Snapshot snap = stack.env->db->GetSnapshot();
  const int64_t row_count = snap.row_count(table);

  double log_sum = 0;
  int probes = 0;
  auto record = [&](double estimate, double truth) {
    estimate = std::max(estimate, 1.0);
    truth = std::max(truth, 1.0);
    log_sum += std::abs(std::log(estimate / truth));
    probes++;
  };

  // Row count.
  QueryBuilder count_builder(&schema, "qerr_count");
  auto count_query = count_builder.From(def.name).Build();
  BALSA_CHECK(count_query.ok(), "count probe");
  record(estimator.EstimateScanRows(*count_query, 0),
         static_cast<double>(row_count));

  // Equality probes over the first attribute column, sampled at fixed
  // row positions of the *current* (drifted) data.
  int attr = -1;
  for (size_t c = 0; c < def.columns.size(); ++c) {
    if (def.columns[c].kind == ColumnKind::kAttribute) {
      attr = static_cast<int>(c);
      break;
    }
  }
  if (attr >= 0 && row_count > 0) {
    const auto& column = snap.column(table, attr);
    for (int p = 0; p < 8; ++p) {
      int64_t row = row_count * (2 * p + 1) / 16;
      int64_t value = column[static_cast<size_t>(row)];
      if (IsNull(value)) continue;
      int64_t truth = 0;
      for (int64_t v : column) truth += v == value ? 1 : 0;
      QueryBuilder builder(&schema, "qerr_eq");
      auto query = builder.From(def.name)
                       .Filter(def.name + "." + def.columns
                                   [static_cast<size_t>(attr)].name,
                               PredOp::kEq, value)
                       .Build();
      BALSA_CHECK(query.ok(), "eq probe");
      record(estimator.EstimateScanRows(*query, 0),
             static_cast<double>(truth));
    }
  }
  return probes > 0 ? std::exp(log_sum / probes) : 1.0;
}

int Run(const DriftBenchConfig& config) {
  std::printf("building two JOB-like envs (scale %.2f) ...\n", config.scale);
  Stack with_rewarm = MakeStack(config, /*rewarm=*/true);
  Stack no_rewarm = MakeStack(config, /*rewarm=*/false);
  std::printf("serving %zu JOB-like queries at %d clients\n",
              with_rewarm.queries.size(), config.clients);

  DriftScenarioOptions drift;
  drift.tables = {with_rewarm.env->schema().TableIndex("title"),
                  with_rewarm.env->schema().TableIndex("movie_info")};
  drift.growth = 0.8;
  drift.delete_fraction = 0.05;
  drift.update_fraction = 0.05;
  drift.batches_per_table = 4;

  ReplayOptions replay;
  replay.num_clients = config.clients;
  replay.zipf_s = 1.1;  // concentrated: a clear hot set for the re-warm
  replay.seed = 17;

  bool ok = true;
  auto gate = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::printf("FAIL: %s\n", what);
      ok = false;
    }
  };

  // --- Phase 1: warm both caches with identical traffic ------------------
  replay.requests_per_client = config.warm_requests_per_client;
  auto warm_a = ReplayWorkload(with_rewarm.server.get(), with_rewarm.queries,
                               replay);
  auto warm_b = ReplayWorkload(no_rewarm.server.get(), no_rewarm.queries,
                               replay);
  BALSA_CHECK(warm_a.ok(), warm_a.status().ToString());
  BALSA_CHECK(warm_b.ok(), warm_b.status().ToString());
  gate(warm_a->min_stats_version == 0 && warm_a->max_stats_version == 0,
       "warm phase must run entirely at version 0");

  // --- Phase 2: the drift streams in (different writer counts), with
  // serving traffic live against one stack to exercise ingest-vs-serving
  // concurrency. Schedulers are not running yet so both stacks accumulate
  // identical sketches.
  auto scenario_a = GenerateDriftScenario(*with_rewarm.env->db, drift);
  auto scenario_b = GenerateDriftScenario(*no_rewarm.env->db, drift);
  BALSA_CHECK(scenario_a.ok(), scenario_a.status().ToString());
  BALSA_CHECK(scenario_b.ok(), scenario_b.status().ToString());
  std::thread live_traffic([&] {
    ReplayOptions live = replay;
    live.requests_per_client = config.warm_requests_per_client / 2;
    live.seed = 18;
    auto report = ReplayWorkload(with_rewarm.server.get(),
                                 with_rewarm.queries, live);
    BALSA_CHECK(report.ok(), report.status().ToString());
  });
  auto drift_start = std::chrono::steady_clock::now();
  BALSA_CHECK(ApplyDriftScenario(*scenario_a, with_rewarm.log.get(),
                                 /*num_writers=*/4).ok(),
              "drift A");
  BALSA_CHECK(ApplyDriftScenario(*scenario_b, no_rewarm.log.get(),
                                 /*num_writers=*/1).ok(),
              "drift B");
  live_traffic.join();

  // --- Gate 5: writer-count invariance of sketches and drift scores ------
  DriftDetector detector;
  for (int t : drift.tables) {
    const TableStats& snap_a = with_rewarm.estimator->current()
                                   ->stats()[static_cast<size_t>(t)];
    DriftScore score_a = detector.Score(snap_a, with_rewarm.log->anchor(t),
                                        with_rewarm.log->Snapshot(t));
    const TableStats& snap_b = no_rewarm.estimator->current()
                                   ->stats()[static_cast<size_t>(t)];
    DriftScore score_b = detector.Score(snap_b, no_rewarm.log->anchor(t),
                                        no_rewarm.log->Snapshot(t));
    gate(score_a.score == score_b.score &&
             score_a.rows_changed == score_b.rows_changed,
         "drift scores must be writer-count invariant");
    gate(score_a.drifted, "scenario must push the table past threshold");
  }

  // Stale view (what serving still plans with) for the Q-error comparison.
  auto stale_a = with_rewarm.estimator->current();

  // --- Phase 3: background schedulers detect and re-ANALYZE on their own -
  with_rewarm.scheduler->Start();
  no_rewarm.scheduler->Start();
  auto wait_for_bump = [&](Stack& stack) {
    for (int i = 0; i < 2000; ++i) {
      if (stack.scheduler->counters().bumps > 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  };
  bool bumped_a = wait_for_bump(with_rewarm);
  double stale_window_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - drift_start)
          .count();
  bool bumped_b = wait_for_bump(no_rewarm);
  gate(bumped_a && bumped_b,
       "background scheduler must detect drift and bump by itself");
  with_rewarm.scheduler->Stop();
  no_rewarm.scheduler->Stop();

  ReanalyzeScheduler::Counters counters_a = with_rewarm.scheduler->counters();
  ReanalyzeScheduler::Counters counters_b = no_rewarm.scheduler->counters();
  gate(counters_a.incremental_merges + counters_a.full_reanalyzes >= 1 &&
           counters_b.incremental_merges + counters_b.full_reanalyzes >= 1,
       "a re-ANALYZE (incremental or full) must have run in both envs");
  gate(counters_b.rewarm_replans == 0,
       "the rewarm-off environment must not have re-warmed anything");
  const int64_t version_a = with_rewarm.server->stats_version();
  std::printf(
      "\ndrift detected automatically: %lld bump(s), %lld incremental / "
      "%lld full re-ANALYZEs, %lld re-warm replans; stale-plan window "
      "~%.0f ms (drift end -> bump, %.0f ms check interval)\n",
      static_cast<long long>(counters_a.bumps),
      static_cast<long long>(counters_a.incremental_merges),
      static_cast<long long>(counters_a.full_reanalyzes),
      static_cast<long long>(counters_a.rewarm_replans), stale_window_ms,
      config.scheduler_interval_ms);

  // --- Gate 5 (second half): both loops installed identical statistics ---
  for (int t : drift.tables) {
    const TableStats& stats_a = with_rewarm.estimator->current()
                                    ->stats()[static_cast<size_t>(t)];
    const TableStats& stats_b = no_rewarm.estimator->current()
                                    ->stats()[static_cast<size_t>(t)];
    bool same = stats_a.row_count == stats_b.row_count &&
                stats_a.columns.size() == stats_b.columns.size();
    for (size_t c = 0; same && c < stats_a.columns.size(); ++c) {
      same = stats_a.columns[c].num_distinct ==
                 stats_b.columns[c].num_distinct &&
             stats_a.columns[c].histogram_bounds ==
                 stats_b.columns[c].histogram_bounds;
    }
    gate(same, "merged statistics must be writer-count invariant");
  }

  // --- Gate 2: Q-error before vs after the re-ANALYZE --------------------
  TablePrinter qtable({"table", "rows now", "Q-err stale", "Q-err merged"});
  for (int t : drift.tables) {
    double stale_q = TableQError(with_rewarm, *stale_a, t);
    double fresh_q =
        TableQError(with_rewarm, *with_rewarm.estimator->current(), t);
    qtable.AddRow({with_rewarm.env->schema().table(t).name,
                   TablePrinter::Fmt(static_cast<double>(
                                         with_rewarm.env->db->row_count(t)),
                                     0),
                   TablePrinter::Fmt(stale_q, 2),
                   TablePrinter::Fmt(fresh_q, 2)});
    gate(fresh_q < stale_q,
         "post-bump Q-error must improve on the stale statistics");
  }
  qtable.Print();

  // --- Gates 3 + 4: post-bump serving, re-warm vs none -------------------
  OptimizerServer::Stats pre_post_a = with_rewarm.server->stats();
  OptimizerServer::Stats pre_post_b = no_rewarm.server->stats();
  replay.requests_per_client = config.post_requests_per_client;
  replay.seed = 19;
  auto post_a = ReplayWorkload(with_rewarm.server.get(), with_rewarm.queries,
                               replay);
  auto post_b = ReplayWorkload(no_rewarm.server.get(), no_rewarm.queries,
                               replay);
  BALSA_CHECK(post_a.ok(), post_a.status().ToString());
  BALSA_CHECK(post_b.ok(), post_b.status().ToString());

  gate(post_a->min_stats_version >= version_a &&
           post_b->min_stats_version >= version_a,
       "zero stale plans after the bump (every request at the new version)");

  int64_t searches_a = post_a->server.planned - pre_post_a.planned;
  int64_t searches_b = post_b->server.planned - pre_post_b.planned;
  TablePrinter table({"mode", "req/s", "hit rate", "p50 us", "p99 us",
                      "post-bump searches"});
  table.AddRow({"rewarm on", TablePrinter::Fmt(post_a->requests_per_sec, 1),
                TablePrinter::Fmt(post_a->hit_rate, 3),
                TablePrinter::Fmt(post_a->p50_us, 0),
                TablePrinter::Fmt(post_a->p99_us, 0),
                TablePrinter::Fmt(static_cast<double>(searches_a), 0)});
  table.AddRow({"rewarm off", TablePrinter::Fmt(post_b->requests_per_sec, 1),
                TablePrinter::Fmt(post_b->hit_rate, 3),
                TablePrinter::Fmt(post_b->p50_us, 0),
                TablePrinter::Fmt(post_b->p99_us, 0),
                TablePrinter::Fmt(static_cast<double>(searches_b), 0)});
  table.Print();
  std::printf("post-bump miss spike: %lld beam searches with re-warm vs "
              "%lld without (%lld re-warmed ahead of traffic)\n",
              static_cast<long long>(searches_a),
              static_cast<long long>(searches_b),
              static_cast<long long>(counters_a.rewarm_replans));
  gate(counters_a.rewarm_replans > 0, "re-warm must have replanned entries");
  gate(searches_a < searches_b,
       "re-warm must cut the post-bump miss spike (fewer beam searches)");
  gate(post_a->hit_rate > post_b->hit_rate,
       "re-warm must raise the post-bump hit rate");

  std::printf("%s\n", ok ? "PASS: all adaptive-drift gates hold"
                         : "FAIL: adaptive-drift gates violated");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace balsa

int main(int argc, char** argv) {
  using namespace balsa;
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  DriftBenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  if (config.smoke) {
    // ~ a few seconds even under TSan: tiny data, narrow beams, few
    // requests. The gates are identical; only the sizes shrink.
    config.scale = 0.03;
    config.clients = 4;
    config.warm_requests_per_client = 30;
    config.post_requests_per_client = 30;
    config.beam_size = 3;
    config.top_k = 1;
    config.max_relations = 5;
    config.rewarm_top_k = 6;
  } else {
    config.scale = flags.scale;
    if (flags.threads > 0) config.clients = flags.threads;
  }
  flags.scale = config.scale;
  flags.threads = config.clients;
  bench::PrintHeader(
      "Adaptive statistics: drift detection -> incremental re-ANALYZE -> "
      "self-invalidating serving",
      "no paper counterpart; closes the serving loop the paper's learned "
      "optimizer needs under data drift",
      flags);
  std::printf(
      "drift config:%s %d clients, beam %d / top-%d, <=%d-relation queries, "
      "%d warm + %d post requests per client, rewarm top-%d\n",
      config.smoke ? " (smoke)" : "", config.clients, config.beam_size,
      config.top_k, config.max_relations, config.warm_requests_per_client,
      config.post_requests_per_client, config.rewarm_top_k);
  return Run(config);
}
