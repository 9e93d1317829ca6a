// perfbench: the repository's end-to-end performance benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (inputs are generated from --seed; the same seed gives the same
// inputs):
//   serve_hot   one closed-loop client re-requests a warmed, Zipf-popular
//               query set: every request is a plan-cache hit (fingerprint,
//               lookup, remap to the requester's numbering).
//   serve_miss  two closed-loop clients send queries carrying a filter
//               constant unique to the request: every request misses the
//               cache and runs a beam search on the planning pool, scoring
//               frontiers on the planning thread.
//   train       Balsa agent fine-tuning: one operation is one RunIteration
//               (plan the training queries, execute with timeouts, SGD).
//   ingest      four writers stream the change batches of
//               bench/bench_snapshot_ingest.cc (16-row append, tail trim,
//               occasional cell updates) through the ChangeLog.
//
// A run is ten rounds. Each round builds its workload's state from scratch
// (that build is the round's set-up time), measures operations for a tenth
// of --seconds, and checks the outputs. Every metric is the median over
// rounds of the round's value, so neither one build's luck (heap layout, a
// training trajectory) nor a slow spell of a shared machine moves it. The
// last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones
// (operation latency p50 and p90, operations per second, set-up time),
// measured with tracing off; with --trace 1 the server's tracer is on and
// the metrics are the per-layer ones (see perfbench/README.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/balsa/agent.h"
#include "src/harness/env.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/query_fingerprint.h"
#include "src/stats/incremental_analyze.h"
#include "src/stats/table_stats.h"
#include "src/storage/change_log.h"
#include "src/util/rng.h"
#include "src/util/stats_util.h"

namespace balsa {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The run's result line. Metrics keep insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  /// Marks the run incorrect; the first reason goes to stderr (stdout
  /// carries only the result line).
  void Fail(const std::string& why) {
    if (correct) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    }
    correct = false;
  }

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;

  std::string Json() const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      double v = metrics_[i].second.first;
      std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].first + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

// --- Closed-loop clients -----------------------------------------------------

/// One operation: `ok` = the call succeeded; `latency_ms` covers only the
/// call into the system, not input generation or output checks.
struct OpResult {
  bool ok = false;
  double latency_ms = 0;
};

struct LoopResult {
  std::vector<double> latencies_ms;  // successful operations only
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_seconds = 0;

  void Merge(const LoopResult& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// Runs `clients` threads, each calling op(client, &rng) back to back until
/// `seconds` elapse (closed loop: a client's next operation starts when its
/// previous one returns). Serving could use ReplayWorkload instead, but it
/// issues a fixed request count and keeps only p50/p95/p99; every workload
/// here is bounded by time and takes its percentiles from raw latencies the
/// same way.
LoopResult ClosedLoop(int clients, double seconds, uint64_t seed,
                      const std::function<OpResult(int, Rng*)>& op) {
  std::vector<LoopResult> per_client(static_cast<size_t>(clients));
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 1000003ULL + static_cast<uint64_t>(c) + 1);
      LoopResult& mine = per_client[static_cast<size_t>(c)];
      while (Clock::now() < deadline) {
        OpResult r = op(c, &rng);
        mine.attempted++;
        if (r.ok) {
          mine.latencies_ms.push_back(r.latency_ms);
        } else {
          mine.failed++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopResult total;
  for (const LoopResult& r : per_client) total.Merge(r);
  total.wall_seconds = SecondsSince(start);
  return total;
}

// --- Rounds and metrics ------------------------------------------------------

/// Per-layer metric names and units, in BENCHMARK.json order. A trace run
/// reports every one; layers a workload does not exercise read 0.
const char* const kLayerMetrics[][2] = {
    {"serving.fingerprint_us", "us"},
    {"serving.remap_us", "us"},
    {"serving.queue_wait_us", "us"},
    {"serving.beam_search_ms", "ms"},
    {"serving.admit_us", "us"},
    {"runtime.inference_us", "us"},
    {"runtime.items_per_search", "count"},
    {"train.bootstrap_s", "s"},
    {"train.planning_ms", "ms"},
    {"train.network_evals", "count"},
    {"train.timeouts", "count"},
    {"exec.oracle_executions", "count"},
    {"storage.chunks_copied", "count"},
    {"storage.chunks_shared", "count"},
    {"stats.analyze_rows_per_s", "1/s"},
};

struct RoundResult {
  double setup_s = 0;
  LoopResult loop;
  std::map<std::string, double> layers;  // filled by trace runs only
};

/// One round: build fresh state from `seed` (timing it into setup_s),
/// measure for `seconds`, check outputs into `report`. False = the round
/// could not run at all.
using RoundFn = std::function<bool(uint64_t seed, double seconds, bool trace,
                                   RoundResult* out, Report* report)>;

const char* const kEndToEndMetrics[][2] = {
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"setup_s", "s"},
};

constexpr int kRounds = 10;

/// Runs kRounds rounds of `seconds / kRounds` each and reports every metric
/// as its median over rounds, so a slow spell of the machine during one
/// round does not move the result.
int RunRounds(uint64_t seed, double seconds, bool trace, const RoundFn& round,
              Report* report) {
  std::map<std::string, std::vector<double>> per_round;
  for (int r = 0; r < kRounds; ++r) {
    RoundResult result;
    uint64_t round_seed = seed * 1000 + static_cast<uint64_t>(r);
    if (!round(round_seed, seconds / kRounds, trace, &result, report)) {
      return 1;
    }
    const LoopResult& loop = result.loop;
    report->attempted += loop.attempted;
    report->failed += loop.failed;
    per_round["latency_p50_ms"].push_back(Percentile(loop.latencies_ms, 50));
    per_round["latency_p90_ms"].push_back(Percentile(loop.latencies_ms, 90));
    per_round["throughput_per_s"].push_back(
        static_cast<double>(loop.latencies_ms.size()) / loop.wall_seconds);
    per_round["setup_s"].push_back(result.setup_s);
    for (const auto& [name, value] : result.layers) {
      per_round[name].push_back(value);
    }
  }
  auto add_all = [&](const auto& metrics) {
    for (const auto& metric : metrics) {
      report->Add(metric[0], Median(per_round[metric[0]]), metric[1]);
    }
  };
  if (trace) {
    add_all(kLayerMetrics);
  } else {
    add_all(kEndToEndMetrics);
  }
  return 0;
}

/// The JOB-like environment at `scale`: the fixed 113-query workload over
/// data generated from `seed`.
std::unique_ptr<Env> MakeBenchEnv(double scale, uint64_t seed) {
  EnvOptions options;
  options.data_scale = scale;
  options.data_seed = seed;
  auto env = MakeEnv(WorkloadKind::kJobTrainAll, options);
  if (!env.ok()) {
    std::fprintf(stderr, "MakeEnv: %s\n", env.status().ToString().c_str());
    return nullptr;
  }
  return std::move(env).value();
}

bool PlanCovers(const Query& query, const Plan& plan) {
  return !plan.empty() && plan.Validate() &&
         plan.RootTables() == query.AllTables();
}

// --- Serving -----------------------------------------------------------------

constexpr double kServeScale = 0.25;
constexpr int kServeMaxRelations = 10;
constexpr int kHotClients = 1;
constexpr int kMissClients = 2;
/// Calls per round in the trace runs' fingerprint and remap probes.
constexpr int kProbeRequests = 4000;

struct ServeState {
  std::unique_ptr<Env> env;
  std::unique_ptr<Featurizer> featurizer;
  std::unique_ptr<ValueNetwork> network;
  PlannerOptions planner;
  obs::MetricsRegistry registry;  // outlives the server's attachments
  std::unique_ptr<OptimizerServer> server;
  std::vector<const Query*> queries;
  /// serve_hot: the plan each query was warmed with, and its fingerprint.
  std::vector<Plan> warm_plans;
  std::vector<uint64_t> warm_fingerprints;
};

/// Env + untrained value network + server (cache on, coalescing on). With
/// `warm`, every query is planned once so the cache holds the whole set.
std::unique_ptr<ServeState> BuildServe(uint64_t seed, bool trace, bool warm) {
  auto state = std::make_unique<ServeState>();
  state->env = MakeBenchEnv(kServeScale, seed);
  if (state->env == nullptr) return nullptr;
  Env& e = *state->env;
  state->featurizer =
      std::make_unique<Featurizer>(&e.schema(), e.estimator.get());
  ValueNetConfig net;
  net.query_dim = state->featurizer->query_dim();
  net.node_dim = state->featurizer->node_dim();
  net.tree_hidden1 = 32;
  net.tree_hidden2 = 16;
  net.mlp_hidden = 16;
  net.init_seed = 7;
  state->network = std::make_unique<ValueNetwork>(net);

  OptimizerServerOptions options;
  options.planner.beam_size = 10;
  options.planner.top_k = 5;
  options.num_planning_threads = kMissClients;
  // Score on the planning thread. With the default micro-batching worker
  // (num_workers = 1) every beam expansion hands its frontier to another
  // thread, and on an oversubscribed host whole runs differed by up to 2x
  // with where that thread got scheduled. Cross-client inference fusion is
  // therefore measured on no workload.
  options.inference.num_workers = 0;
  options.trace.sample_every = trace ? 1 : 0;
  if (trace) options.metrics = &state->registry;  // arms pool-wait timing
  state->planner = options.planner;
  state->server = std::make_unique<OptimizerServer>(
      &e.schema(), state->featurizer.get(), state->network.get(),
      e.oracle.get(), options);
  for (const Query& q : e.workload.queries()) {
    if (q.num_relations() <= kServeMaxRelations) state->queries.push_back(&q);
  }
  if (warm) {
    for (const Query* q : state->queries) {
      auto r = state->server->Optimize(*q);
      if (!r.ok()) {
        std::fprintf(stderr, "warm %s: %s\n", q->name().c_str(),
                     r.status().ToString().c_str());
        return nullptr;
      }
      state->warm_fingerprints.push_back(r->plan.Fingerprint());
      state->warm_plans.push_back(std::move(r->plan));
    }
  }
  return state;
}

/// Compares a served plan with a fresh single-threaded beam search over the
/// same network and options: at a fixed stats_version they must be bitwise
/// identical.
void CheckAgainstFreshPlanner(const ServeState& s, const Query& query,
                              uint64_t served_fingerprint, Report* report) {
  BeamSearchPlanner fresh(&s.env->schema(), s.featurizer.get(),
                          s.network.get(), s.planner);
  auto direct = fresh.TopK(query);
  if (!direct.ok() || direct->plans.empty()) {
    report->Fail("fresh planning failed for " + query.name());
  } else if (direct->plans[0].plan.Fingerprint() != served_fingerprint) {
    report->Fail("served plan differs from fresh planning for " +
                 query.name());
  }
}

/// Cumulative serving instruments. A round's layer metrics are the
/// difference between a capture taken after set-up and one taken after the
/// measured loop, so warm-up traffic does not count.
struct ServeCounters {
  OptimizerServer::Stats stats;
  int64_t scored_items = 0;
  obs::HistogramData queue_wait, beam_search, admit, inference;
};

ServeCounters Capture(const OptimizerServer& server) {
  ServeCounters c;
  c.stats = server.stats();
  c.scored_items = server.inference()->stats().items;
  c.queue_wait = server.pool_wait_histogram().Snapshot();
  auto stage = [&](obs::TraceStage s) {
    return server.tracer().stage_histogram(s).Snapshot();
  };
  c.beam_search = stage(obs::TraceStage::kBeamSearch);
  c.admit = stage(obs::TraceStage::kAdmit);
  c.inference = stage(obs::TraceStage::kInference);
  return c;
}

/// Mean of the values one histogram recorded between two captures.
double MeanBetween(const obs::HistogramData& before,
                   const obs::HistogramData& after) {
  int64_t n = after.count - before.count;
  return n > 0 ? static_cast<double>(after.sum - before.sum) /
                     static_cast<double>(n)
               : 0;
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

/// Keeps probe results observable so the timed calls are not elided.
volatile uint64_t g_probe_sink = 0;

/// Mean wall microseconds per call of fn(i) for i in [0, n), timed as one
/// span around the whole loop.
template <typename Fn>
double MeanMicros(size_t n, Fn fn) {
  if (n == 0) return 0;
  Clock::time_point start = Clock::now();
  uint64_t sink = 0;
  for (size_t i = 0; i < n; ++i) sink ^= fn(i);
  double us = std::chrono::duration<double, std::micro>(Clock::now() - start)
                  .count();
  g_probe_sink = sink;
  return us / static_cast<double>(n);
}

/// Serving layer metrics for one round: the server's own instruments over
/// the measured loop, plus a fingerprint probe over this round's query mix.
/// The probe is the benchmark's own loop of CanonicalizeQuery calls, not a
/// span of served requests: the server's stage histograms sum whole
/// microseconds, too coarse for a call this short.
std::map<std::string, double> ServeLayers(
    const ServeState& s, const ServeCounters& before,
    const std::vector<const Query*>& mix) {
  ServeCounters after = Capture(*s.server);
  std::map<std::string, double> v;
  v["serving.fingerprint_us"] = MeanMicros(mix.size(), [&](size_t i) {
    return CanonicalizeQuery(*mix[i]).fingerprint;
  });
  v["serving.queue_wait_us"] = MeanBetween(before.queue_wait, after.queue_wait);
  v["serving.beam_search_ms"] =
      MeanBetween(before.beam_search, after.beam_search) / 1000.0;
  v["serving.admit_us"] = MeanBetween(before.admit, after.admit);
  v["runtime.inference_us"] = MeanBetween(before.inference, after.inference);
  v["runtime.items_per_search"] =
      Ratio(after.scored_items - before.scored_items,
            after.stats.planned - before.stats.planned);
  return v;
}

bool ServeHotRound(uint64_t seed, double seconds, bool trace,
                   RoundResult* out, Report* report) {
  Clock::time_point setup_start = Clock::now();
  std::unique_ptr<ServeState> state = BuildServe(seed, trace, /*warm=*/true);
  out->setup_s = SecondsSince(setup_start);
  if (state == nullptr) return false;
  ServeState& s = *state;

  // Zipf popularity over the warmed set in workload order: the ranking is
  // fixed, the seed drives the request sequence (and the data).
  ZipfGenerator zipf(s.queries.size(), 0.9);
  ServeCounters before = Capture(*s.server);
  std::atomic<int64_t> wrong{0};
  out->loop = ClosedLoop(kHotClients, seconds, seed, [&](int, Rng* rng) {
    size_t idx = zipf.Sample(rng);
    Clock::time_point start = Clock::now();
    auto result = s.server->Optimize(*s.queries[idx]);
    OpResult op;
    op.latency_ms = MillisSince(start);
    op.ok = result.ok();
    if (op.ok && (!result->cache_hit ||
                  result->plan.Fingerprint() != s.warm_fingerprints[idx])) {
      wrong.fetch_add(1, std::memory_order_relaxed);
    }
    return op;
  });
  if (wrong.load() > 0) {
    report->Fail(std::to_string(wrong.load()) +
                 " hot requests missed the cache or changed plan");
  }
  for (size_t i = 0; i < s.queries.size(); i += 23) {
    CheckAgainstFreshPlanner(s, *s.queries[i], s.warm_fingerprints[i],
                             report);
  }
  if (trace) {
    // The same popularity mix again, for the fingerprint probe and a remap
    // probe: like the hit path, map a cached plan from canonical relation
    // numbering back to the query's, through the inverse permutation.
    std::vector<Plan> canonical_plans;
    std::vector<std::vector<int>> ranks;
    for (size_t i = 0; i < s.queries.size(); ++i) {
      ranks.push_back(CanonicalizeQuery(*s.queries[i]).canonical_rank);
      canonical_plans.push_back(RemapPlanRelations(s.warm_plans[i], ranks[i]));
      if (RemapPlanRelations(canonical_plans[i], InversePermutation(ranks[i]))
              .Fingerprint() != s.warm_fingerprints[i]) {
        report->Fail("remap round trip changed the plan of " +
                     s.queries[i]->name());
      }
    }
    Rng rng(seed);
    std::vector<size_t> picks(kProbeRequests);
    std::vector<const Query*> mix;
    for (size_t& idx : picks) {
      idx = zipf.Sample(&rng);
      mix.push_back(s.queries[idx]);
    }
    out->layers = ServeLayers(s, before, mix);
    out->layers["serving.remap_us"] = MeanMicros(picks.size(), [&](size_t i) {
      size_t q = picks[i];
      return static_cast<uint64_t>(
          RemapPlanRelations(canonical_plans[q], InversePermutation(ranks[q]))
              .root());
    });
  }
  return true;
}

/// `base` plus a `<> value` filter on its first relation's first column:
/// the same planning problem as `base` under a fingerprint of its own.
Query UniqueVariant(const Query& base, int64_t value) {
  std::vector<FilterPredicate> filters = base.filters();
  FilterPredicate extra;
  extra.col.relation = 0;
  extra.col.column = 0;
  extra.op = PredOp::kNe;
  extra.value = value;
  filters.push_back(extra);
  Query q(base.name() + "#" + std::to_string(value), base.relations(),
          base.joins(), std::move(filters));
  q.set_id(base.id());
  return q;
}

bool ServeMissRound(uint64_t seed, double seconds, bool trace,
                    RoundResult* out, Report* report) {
  Clock::time_point setup_start = Clock::now();
  std::unique_ptr<ServeState> state = BuildServe(seed, trace, /*warm=*/false);
  out->setup_s = SecondsSince(setup_start);
  if (state == nullptr) return false;
  ServeState& s = *state;

  std::vector<int64_t> next_value(kMissClients, 0);
  ServeCounters before = Capture(*s.server);
  std::atomic<int64_t> wrong{0};
  struct Served {
    Query query;
    uint64_t fingerprint;
  };
  std::vector<Served> sample;  // client 0's first requests, re-planned below
  out->loop = ClosedLoop(
      kMissClients, seconds, seed, [&](int client, Rng* rng) {
        const Query& base = *s.queries[rng->Uniform(s.queries.size())];
        // Far outside every generated domain, distinct per request.
        int64_t value = (int64_t{1} << 50) + client * (int64_t{1} << 40) +
                        next_value[static_cast<size_t>(client)]++;
        Query query = UniqueVariant(base, value);
        Clock::time_point start = Clock::now();
        auto result = s.server->Optimize(query);
        OpResult op;
        op.latency_ms = MillisSince(start);
        op.ok = result.ok();
        if (op.ok) {
          if (result->cache_hit || !PlanCovers(query, result->plan)) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          } else if (client == 0 && sample.size() < 4) {
            sample.push_back({query, result->plan.Fingerprint()});
          }
        }
        return op;
      });
  if (wrong.load() > 0) {
    report->Fail(std::to_string(wrong.load()) +
                 " miss requests hit the cache or got an invalid plan");
  }
  for (const Served& served : sample) {
    CheckAgainstFreshPlanner(s, served.query, served.fingerprint, report);
  }
  if (trace) {
    Rng rng(seed);
    std::vector<Query> variants;
    for (int i = 0; i < kProbeRequests; ++i) {
      variants.push_back(UniqueVariant(
          *s.queries[rng.Uniform(s.queries.size())], -(int64_t{1} << 50) - i));
    }
    std::vector<const Query*> mix;
    for (const Query& q : variants) mix.push_back(&q);
    out->layers = ServeLayers(s, before, mix);
  }
  return true;
}

// --- Training ----------------------------------------------------------------

constexpr double kTrainScale = 0.1;
constexpr int kTrainQueries = 10;
constexpr int kTrainMaxRelations = 8;
constexpr int kTrainWarmupIterations = 10;

struct TrainState {
  std::unique_ptr<Env> env;
  Workload workload;
  std::unique_ptr<BalsaAgent> agent;
  double bootstrap_s = 0;
};

/// Env + a 10-query training workload + an agent bootstrapped from the C_out
/// simulator.
std::unique_ptr<TrainState> BuildTrain(uint64_t seed) {
  auto state = std::make_unique<TrainState>();
  state->env = MakeBenchEnv(kTrainScale, seed);
  if (state->env == nullptr) return nullptr;
  Env& e = *state->env;

  // One query from each of the first kTrainQueries join templates with at
  // most kTrainMaxRelations relations: every seed trains on the same join
  // graphs, the seed picks each template's instance (filter constants).
  std::map<uint64_t, std::vector<const Query*>> by_template;
  std::vector<uint64_t> template_order;
  for (const Query& q : e.workload.queries()) {
    if (q.num_relations() > kTrainMaxRelations) continue;
    uint64_t signature = q.TemplateSignature(e.schema());
    auto& instances = by_template[signature];
    if (instances.empty()) template_order.push_back(signature);
    instances.push_back(&q);
  }
  Rng rng(seed ^ 0x7a11ULL);
  std::vector<Query> picked;
  for (size_t i = 0; i < template_order.size() &&
                     static_cast<int>(picked.size()) < kTrainQueries;
       ++i) {
    const auto& instances = by_template[template_order[i]];
    picked.push_back(*instances[rng.Uniform(instances.size())]);
  }
  std::vector<int> train(picked.size());
  for (size_t i = 0; i < train.size(); ++i) train[i] = static_cast<int>(i);
  state->workload = Workload("perfbench-train", std::move(picked));
  if (!state->workload.SetSplit(train, {}).ok()) return nullptr;

  BalsaAgentOptions options;
  options.planner.beam_size = 5;
  options.planner.top_k = 3;
  options.sim.max_points_per_query = 200;
  // Single-threaded planning, collection and scoring: iterations hand off to
  // no other thread, for the same reason serving scores on the planning
  // thread. Parallel training is therefore measured on no workload.
  options.sim.num_threads = 1;
  // Fixed epoch counts: early stopping would make an iteration's SGD cost
  // depend on its validation loss.
  options.sim_train.min_epochs = options.sim_train.max_epochs = 5;
  options.real_train.min_epochs = options.real_train.max_epochs = 3;
  options.num_threads = 1;
  options.inference.num_workers = 0;
  options.eval_test_every = 0;
  options.seed = seed;
  options.net.tree_hidden1 = 32;
  options.net.tree_hidden2 = 16;
  options.net.mlp_hidden = 16;
  state->agent = std::make_unique<BalsaAgent>(
      &e.schema(), e.pg_engine.get(), e.cout_model.get(), e.estimator.get(),
      &state->workload, options);
  Clock::time_point start = Clock::now();
  if (Status st = state->agent->Bootstrap(); !st.ok()) {
    std::fprintf(stderr, "Bootstrap: %s\n", st.ToString().c_str());
    return nullptr;
  }
  state->bootstrap_s = SecondsSince(start);
  return state;
}

bool TrainRound(uint64_t seed, double seconds, bool trace, RoundResult* out,
                Report* report) {
  Clock::time_point setup_start = Clock::now();
  std::unique_ptr<TrainState> state = BuildTrain(seed);
  out->setup_s = SecondsSince(setup_start);
  if (state == nullptr) return false;
  TrainState& s = *state;
  // The first iterations mostly execute never-seen plans; measure the loop
  // once it has settled.
  for (int i = 0; i < kTrainWarmupIterations; ++i) {
    if (Status st = s.agent->RunIteration(); !st.ok()) {
      std::fprintf(stderr, "RunIteration: %s\n", st.ToString().c_str());
      return false;
    }
  }
  int64_t executions_before = s.env->oracle->NumExecutions();

  // One client: each iteration plans with the network the previous trained.
  out->loop = ClosedLoop(1, seconds, seed, [&](int, Rng*) {
    Clock::time_point start = Clock::now();
    Status st = s.agent->RunIteration();
    OpResult op;
    op.latency_ms = MillisSince(start);
    op.ok = st.ok();
    if (!st.ok()) {
      std::fprintf(stderr, "RunIteration: %s\n", st.ToString().c_str());
    }
    return op;
  });

  const std::vector<IterationStats>& curve = s.agent->curve();
  if (static_cast<int64_t>(curve.size()) !=
      kTrainWarmupIterations + out->loop.attempted - out->loop.failed) {
    report->Fail("learning curve length != completed iterations");
  }
  for (const IterationStats& it : curve) {
    if (!(it.executed_runtime_ms > 0) || !std::isfinite(it.virtual_seconds)) {
      report->Fail("iteration with non-positive executed runtime");
      break;
    }
  }
  for (const Query* q : s.workload.TrainQueries()) {
    auto plan = s.agent->PlanBest(*q);
    if (!plan.ok() || !PlanCovers(*q, *plan)) {
      report->Fail("PlanBest produced no valid plan for " + q->name());
    }
  }

  if (trace) {
    // Per measured iteration (the warm-up ones come first in the curve).
    double planning_ms = 0, evals = 0, timeouts = 0;
    for (size_t i = kTrainWarmupIterations; i < curve.size(); ++i) {
      planning_ms += curve[i].planning_time_ms;
      evals += static_cast<double>(curve[i].network_evals);
      timeouts += curve[i].num_timeouts;
    }
    double n = std::max<double>(
        1.0, static_cast<double>(curve.size()) - kTrainWarmupIterations);
    out->layers["train.bootstrap_s"] = s.bootstrap_s;
    out->layers["train.planning_ms"] = planning_ms / n;
    out->layers["train.network_evals"] = evals / n;
    out->layers["train.timeouts"] = timeouts / n;
    out->layers["exec.oracle_executions"] =
        static_cast<double>(s.env->oracle->NumExecutions() -
                            executions_before) /
        n;
  }
  return true;
}

// --- Ingest ------------------------------------------------------------------

// The change stream of bench/bench_snapshot_ingest.cc, without its serving
// clients and inter-batch sleep: each writer owns one of the tables around
// the median row count and, per batch, appends kIngestBatchRows rows, trims
// as many off the tail (the row count stays constant) and, every
// kIngestUpdateEvery batches, rewrites kIngestUpdates cells of column 1.
// Non-key values lie in [0, 997) as there; the seed draws them.
constexpr double kIngestScale = 0.25;
constexpr int kIngestWriters = 4;
constexpr int kIngestBatchRows = 16;
constexpr int kIngestUpdateEvery = 4;
constexpr uint64_t kIngestUpdates = 4;
constexpr uint64_t kIngestValueDomain = 997;
/// Appended primary keys start above every generated key (those are
/// 0..row_count-1), so a row the tail trim missed is recognisable.
constexpr int64_t kIngestKeyBase = int64_t{1} << 40;

struct IngestState {
  std::unique_ptr<Env> env;
  std::unique_ptr<ChangeLog> log;
  std::vector<int> tables;  // writer w streams into tables[w]
  std::vector<int64_t> initial_rows;
};

/// Env + a change log anchored on the env's ANALYZE results.
std::unique_ptr<IngestState> BuildIngest(uint64_t seed) {
  auto state = std::make_unique<IngestState>();
  state->env = MakeBenchEnv(kIngestScale, seed);
  if (state->env == nullptr) return nullptr;
  Env& e = *state->env;
  state->log = std::make_unique<ChangeLog>(e.db.get());
  const std::vector<TableStats>& stats = e.base_estimator->stats();
  std::vector<std::pair<int64_t, int>> sized;
  for (int t = 0; t < e.schema().num_tables(); ++t) {
    state->log->SetAnchor(t, MakeTableAnchor(stats[static_cast<size_t>(t)]));
    if (e.db->HasData(t)) sized.push_back({e.db->row_count(t), t});
  }
  if (sized.size() < static_cast<size_t>(kIngestWriters)) return nullptr;
  std::sort(sized.begin(), sized.end());
  size_t first = sized.size() / 2 - kIngestWriters / 2;
  for (size_t i = first; i < first + kIngestWriters; ++i) {
    state->tables.push_back(sized[i].second);
    state->initial_rows.push_back(sized[i].first);
  }
  return state;
}

bool IngestRound(uint64_t seed, double seconds, bool trace, RoundResult* out,
                 Report* report) {
  Clock::time_point setup_start = Clock::now();
  std::unique_ptr<IngestState> state = BuildIngest(seed);
  out->setup_s = SecondsSince(setup_start);
  if (state == nullptr) return false;
  IngestState& s = *state;
  Database& db = *s.env->db;
  Database::StorageStats storage_before = db.storage_stats();

  // Per-writer tallies; each slot is only touched by its writer.
  std::vector<int64_t> batches(kIngestWriters, 0);
  std::vector<int64_t> updates(kIngestWriters, 0);
  out->loop = ClosedLoop(
      kIngestWriters, seconds, seed, [&](int writer, Rng* rng) {
        size_t w = static_cast<size_t>(writer);
        int table = s.tables[w];
        const std::vector<ColumnDef>& columns =
            db.schema().table(table).columns;
        int64_t rows = s.initial_rows[w];
        std::vector<std::vector<int64_t>> inserts;
        for (int i = 0; i < kIngestBatchRows; ++i) {
          std::vector<int64_t> row(columns.size());
          for (size_t c = 0; c < columns.size(); ++c) {
            row[c] = columns[c].kind == ColumnKind::kPrimaryKey
                         ? kIngestKeyBase + batches[w] * kIngestBatchRows + i
                         : static_cast<int64_t>(
                               rng->Uniform(kIngestValueDomain));
          }
          inserts.push_back(std::move(row));
        }
        // The appended rows are the ids just past the table's fixed size.
        std::vector<int64_t> trim;
        for (int i = 0; i < kIngestBatchRows; ++i) trim.push_back(rows + i);
        std::vector<std::pair<int64_t, int64_t>> cells;
        if (batches[w] % kIngestUpdateEvery == 0 && columns.size() > 1) {
          uint64_t base = rng->Uniform(static_cast<uint64_t>(rows));
          for (uint64_t i = 0; i < kIngestUpdates; ++i) {
            cells.push_back(
                {static_cast<int64_t>((base + 7 * i) %
                                      static_cast<uint64_t>(rows)),
                 static_cast<int64_t>(rng->Uniform(kIngestValueDomain))});
          }
        }
        Clock::time_point start = Clock::now();
        Status st = s.log->InsertRows(table, inserts);
        if (st.ok()) st = s.log->DeleteRows(table, std::move(trim));
        if (st.ok() && !cells.empty()) {
          st = s.log->UpdateValues(table, 1, cells);
        }
        OpResult op;
        op.latency_ms = MillisSince(start);
        op.ok = st.ok();
        if (st.ok()) {
          batches[w]++;
          updates[w] += static_cast<int64_t>(cells.size());
        } else {
          std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
        }
        return op;
      });

  // Every batch trimmed what it appended: sizes are back where they
  // started, no appended key is left, and the change log saw exactly what
  // was applied.
  Snapshot snapshot = db.GetSnapshot();
  for (size_t w = 0; w < s.tables.size(); ++w) {
    int table = s.tables[w];
    if (snapshot.row_count(table) != s.initial_rows[w]) {
      report->Fail("row count drifted on table " + std::to_string(table));
    }
    const std::vector<ColumnDef>& columns = db.schema().table(table).columns;
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c].kind != ColumnKind::kPrimaryKey) continue;
      for (int64_t key : snapshot.column(table, static_cast<int>(c))) {
        if (key >= kIngestKeyBase) {
          report->Fail("an appended row survived on table " +
                       std::to_string(table));
          break;
        }
      }
    }
    TableDelta delta = s.log->Snapshot(table);
    int64_t expect = batches[w] * kIngestBatchRows;
    if (delta.rows_inserted != expect || delta.rows_deleted != expect ||
        delta.rows_updated != updates[w]) {
      report->Fail("change log delta disagrees on table " +
                   std::to_string(table));
    }
  }

  // A full ANALYZE of the ingested tables: the statistics layer's scan rate.
  int64_t analyzed_rows = 0;
  Clock::time_point analyze_start = Clock::now();
  for (size_t w = 0; w < s.tables.size(); ++w) {
    auto stats = AnalyzeTable(snapshot, s.tables[w]);
    if (!stats.ok() || stats->row_count != s.initial_rows[w]) {
      report->Fail("ANALYZE disagrees with the ingested row count");
    }
    analyzed_rows += snapshot.row_count(s.tables[w]);
  }
  double analyze_s = SecondsSince(analyze_start);

  if (trace) {
    Database::StorageStats after = db.storage_stats();
    double n = std::max<double>(
        1.0, static_cast<double>(out->loop.latencies_ms.size()));
    out->layers["storage.chunks_copied"] =
        static_cast<double>(after.chunks_copied -
                            storage_before.chunks_copied) /
        n;
    out->layers["storage.chunks_shared"] =
        static_cast<double>(after.chunks_shared -
                            storage_before.chunks_shared) /
        n;
    out->layers["stats.analyze_rows_per_s"] =
        static_cast<double>(analyzed_rows) / analyze_s;
  }
  return true;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace
}  // namespace balsa

int main(int argc, char** argv) {
  using namespace balsa;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_hot|serve_miss|train|"
                 "ingest --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const std::pair<const char*, RoundFn> workloads[] = {
      {"serve_hot", ServeHotRound},
      {"serve_miss", ServeMissRound},
      {"train", TrainRound},
      {"ingest", IngestRound},
  };
  for (const auto& [name, round] : workloads) {
    if (args.workload != name) continue;
    Report report;
    if (RunRounds(args.seed, args.seconds, args.trace, round, &report) != 0) {
      return 1;
    }
    std::printf("%s\n", report.Json().c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
