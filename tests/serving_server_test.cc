// OptimizerServer end-to-end: cache hits return the exact plan a fresh beam
// search would produce, concurrent misses for one fingerprint coalesce into
// exactly one planning call, results are invariant to client/planning
// thread counts, and a stats bump means stale plans are never served again.
#include "src/serving/optimizer_server.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/serving/query_fingerprint.h"
#include "src/serving/replay_driver.h"
#include "src/sql/parser.h"
#include "test_util.h"

// Every heap allocation in this binary is counted, so a test can pin how
// many a served hit makes. The replacements stay out of line: inlined, gcc
// would pair a caller's `new` with the `free` inside `delete` and warn.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace balsa {
namespace {

class OptimizerServerTest : public ::testing::Test {
 protected:
  OptimizerServerTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        featurizer_(&fixture_.schema(), fixture_.estimator.get()) {
    ValueNetConfig config;
    config.query_dim = featurizer_.query_dim();
    config.node_dim = featurizer_.node_dim();
    config.tree_hidden1 = 16;
    config.tree_hidden2 = 8;
    config.mlp_hidden = 8;
    config.init_seed = 11;
    network_ = std::make_unique<ValueNetwork>(config);
  }

  OptimizerServerOptions SmallOptions() {
    OptimizerServerOptions options;
    options.planner.beam_size = 5;
    options.planner.top_k = 2;
    return options;
  }

  std::unique_ptr<OptimizerServer> MakeServer(
      OptimizerServerOptions options) {
    return std::make_unique<OptimizerServer>(&fixture_.schema(), &featurizer_,
                                             network_.get(),
                                             fixture_.oracle.get(), options);
  }

  /// A filter-variant of the star query (distinct fingerprint per region).
  Query StarVariant(int64_t region) {
    QueryBuilder builder(&fixture_.schema(), "star_v");
    auto query = builder.From("sales", "s")
                     .From("customer", "c")
                     .From("product", "p")
                     .JoinEq("s.customer_id", "c.id")
                     .JoinEq("s.product_id", "p.id")
                     .Filter("c.region", PredOp::kEq, region)
                     .Build();
    BALSA_CHECK(query.ok(), "variant");
    Query q = std::move(query).value();
    q.set_id(static_cast<int>(region));
    return q;
  }

  testing::StarFixture fixture_;
  Query query_;
  Featurizer featurizer_;
  std::unique_ptr<ValueNetwork> network_;
};

TEST_F(OptimizerServerTest, MissThenHitReturnsTheIdenticalPlan) {
  auto server = MakeServer(SmallOptions());
  auto first = server->Optimize(query_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_TRUE(first->plan.Validate());
  EXPECT_EQ(first->plan.RootTables(), query_.AllTables());

  auto second = server->Optimize(query_);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->plan.Fingerprint(), first->plan.Fingerprint());
  EXPECT_EQ(second->predicted_ms, first->predicted_ms);

  OptimizerServer::Stats stats = server->stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.planned, 1);
}

TEST_F(OptimizerServerTest, ServedPlanMatchesAFreshBeamSearch) {
  auto server = MakeServer(SmallOptions());
  auto served = server->Optimize(query_);
  ASSERT_TRUE(served.ok());

  PlannerOptions planner_options = SmallOptions().planner;
  BeamSearchPlanner fresh(&fixture_.schema(), &featurizer_, network_.get(),
                          planner_options);
  auto direct = fresh.TopK(query_);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(served->plan.Fingerprint(), direct->plans[0].plan.Fingerprint());
  EXPECT_EQ(served->predicted_ms, direct->plans[0].predicted_ms);
}

TEST_F(OptimizerServerTest, ConcurrentMissesCoalesceIntoOnePlanningCall) {
  auto server = MakeServer(SmallOptions());
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 5;
  std::vector<uint64_t> fingerprints(kThreads * kRequestsPerThread, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        auto result = server->Optimize(query_);
        BALSA_CHECK(result.ok(), result.status().ToString());
        fingerprints[static_cast<size_t>(t * kRequestsPerThread + r)] =
            result->plan.Fingerprint();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // One fingerprint, one stats_version: exactly one beam search ever runs,
  // no matter how the herd interleaves. Everyone else hit the cache or
  // joined the in-flight call.
  OptimizerServer::Stats stats = server->stats();
  EXPECT_EQ(stats.planned, 1);
  EXPECT_EQ(stats.requests, kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.hits + stats.coalesced, stats.requests - 1);
  for (uint64_t fp : fingerprints) EXPECT_EQ(fp, fingerprints[0]);
}

TEST_F(OptimizerServerTest, PlansAreClientAndPoolThreadCountInvariant) {
  // Baseline: one client, one planning thread.
  OptimizerServerOptions base_options = SmallOptions();
  base_options.num_planning_threads = 1;
  auto baseline_server = MakeServer(base_options);
  std::vector<uint64_t> baseline;
  for (int64_t region = 0; region < 4; ++region) {
    auto result = baseline_server->Optimize(StarVariant(region));
    ASSERT_TRUE(result.ok());
    baseline.push_back(result->plan.Fingerprint());
  }

  for (int clients : {2, 4}) {
    for (int pool_threads : {1, 3}) {
      OptimizerServerOptions options = SmallOptions();
      options.num_planning_threads = pool_threads;
      auto server = MakeServer(options);
      std::vector<std::vector<uint64_t>> got(
          static_cast<size_t>(clients), std::vector<uint64_t>(4, 0));
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (int64_t region = 0; region < 4; ++region) {
            auto result = server->Optimize(StarVariant(region));
            BALSA_CHECK(result.ok(), result.status().ToString());
            got[static_cast<size_t>(c)][static_cast<size_t>(region)] =
                result->plan.Fingerprint();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (int c = 0; c < clients; ++c) {
        EXPECT_EQ(got[static_cast<size_t>(c)], baseline)
            << clients << " clients, " << pool_threads << " pool threads";
      }
    }
  }
}

TEST_F(OptimizerServerTest, OneSlotGateAdmitsEveryClientsMiss) {
  // One planning slot, four clients with distinct queries: each miss plans
  // on its own client thread, one at a time, and every admitted beam search
  // records its wait for the slot (0 µs when the slot was free).
  obs::MetricsRegistry registry;  // outlives the server's attachments
  OptimizerServerOptions options = SmallOptions();
  options.num_planning_threads = 1;
  options.metrics = &registry;
  auto server = MakeServer(options);
  EXPECT_EQ(server->num_planning_threads(), 1);

  constexpr int kClients = 4;
  std::vector<OptimizerServer::OptimizeResult> served(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto result = server->Optimize(StarVariant(c));
      BALSA_CHECK(result.ok(), result.status().ToString());
      served[static_cast<size_t>(c)] = std::move(result).value();
    });
  }
  for (std::thread& t : threads) t.join();

  BeamSearchPlanner fresh(&fixture_.schema(), &featurizer_, network_.get(),
                          SmallOptions().planner);
  for (int c = 0; c < kClients; ++c) {
    const OptimizerServer::OptimizeResult& got =
        served[static_cast<size_t>(c)];
    EXPECT_FALSE(got.cache_hit);
    auto direct = fresh.TopK(StarVariant(c));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(got.plan.Fingerprint(), direct->plans[0].plan.Fingerprint())
        << "client " << c;
    EXPECT_EQ(got.predicted_ms, direct->plans[0].predicted_ms);
  }
  EXPECT_EQ(server->stats().planned, kClients);
  EXPECT_EQ(server->pool_wait_histogram().Count(), server->stats().planned);
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  ASSERT_NE(snapshot.Find("runtime.pool.queue_depth"), nullptr);
  EXPECT_EQ(snapshot.Find("runtime.pool.queue_depth")->value, 0);
}

TEST_F(OptimizerServerTest, StatsBumpInvalidatesWithoutServingStale) {
  auto server = MakeServer(SmallOptions());
  auto before = server->Optimize(query_);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->stats_version, 0);
  ASSERT_TRUE(server->Optimize(query_)->cache_hit);

  fixture_.oracle->BumpGeneration();
  EXPECT_EQ(server->stats_version(), 1);

  auto after = server->Optimize(query_);
  ASSERT_TRUE(after.ok());
  // Replanned under the new generation — the version-0 entry was not served.
  EXPECT_FALSE(after->cache_hit);
  EXPECT_EQ(after->stats_version, 1);
  EXPECT_EQ(server->stats().planned, 2);
  EXPECT_EQ(server->cache().Totals().stale_evictions, 1);

  // Same statistics regime, same plan: nothing about the data changed here.
  EXPECT_EQ(after->plan.Fingerprint(), before->plan.Fingerprint());
  // And the new entry serves at the new version.
  auto again = server->Optimize(query_);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  EXPECT_EQ(again->stats_version, 1);
}

TEST_F(OptimizerServerTest, SqlEntryPointSharesSlotsAcrossAliasSpelling) {
  auto server = MakeServer(SmallOptions());
  const std::string sql_a =
      "SELECT * FROM sales s, customer c "
      "WHERE s.customer_id = c.id AND c.region = 2";
  auto first = server->OptimizeSql(sql_a);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);

  // Renamed aliases, reordered FROM list: same fingerprint, cache hit.
  const std::string sql_b =
      "SELECT * FROM customer buyer, sales fact "
      "WHERE fact.customer_id = buyer.id AND buyer.region = 2";
  auto second = server->OptimizeSql(sql_b);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);

  // The served plan must be wired to the *second* query's relation
  // numbering (customer = 0, sales = 1), not the first's: executing it
  // against the second query must work and produce the same result.
  auto query_a = ParseSql(fixture_.schema(), sql_a, "a");
  auto query_b = ParseSql(fixture_.schema(), sql_b, "b");
  ASSERT_TRUE(query_a.ok());
  ASSERT_TRUE(query_b.ok());
  EXPECT_TRUE(second->plan.Validate());
  EXPECT_EQ(second->plan.RootTables(), query_b->AllTables());
  Executor executor(fixture_.db.get());
  auto rows_a = executor.Execute(*query_a, first->plan);
  auto rows_b = executor.Execute(*query_b, second->plan);
  ASSERT_TRUE(rows_a.ok()) << rows_a.status().ToString();
  ASSERT_TRUE(rows_b.ok()) << rows_b.status().ToString();
  EXPECT_EQ(rows_b->NumRows(), rows_a->NumRows());
}

TEST_F(OptimizerServerTest, ReplayDriverReportsConsistentPlans) {
  auto server = MakeServer(SmallOptions());
  std::vector<Query> variants;
  for (int64_t region = 0; region < 3; ++region) {
    variants.push_back(StarVariant(region));
  }
  std::vector<const Query*> queries;
  for (const Query& q : variants) queries.push_back(&q);

  ReplayOptions replay;
  replay.num_clients = 4;
  replay.requests_per_client = 25;
  auto report = ReplayWorkload(server.get(), queries, replay);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests, 100);
  EXPECT_TRUE(report->plans_consistent);
  // 3 distinct fingerprints at one stats_version: at most 3 beam searches.
  EXPECT_LE(report->server.planned, 3);
  EXPECT_GT(report->hit_rate, 0.5);
  EXPECT_GT(report->requests_per_sec, 0);
  EXPECT_GE(report->p99_us, report->p50_us);
}

TEST_F(OptimizerServerTest, RewarmRefreshesHottestEntriesAfterBump) {
  auto server = MakeServer(SmallOptions());
  // Heat: region 0 served 4x, region 1 served 2x, region 2 once.
  for (int64_t region = 0; region < 3; ++region) {
    for (int64_t n = 0; n < 4 - region; ++n) {
      ASSERT_TRUE(server->Optimize(StarVariant(region)).ok());
    }
  }
  int64_t planned_before = server->stats().planned;
  EXPECT_EQ(planned_before, 3);

  fixture_.oracle->BumpGeneration();
  OptimizerServer::RewarmReport report = server->Rewarm(/*top_k=*/2);
  EXPECT_EQ(report.candidates, 2);
  EXPECT_EQ(report.replanned, 2);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(server->stats().rewarmed, 2);

  // The two hottest fingerprints now hit at the new version — no client
  // paid for their replanning. The cold one still misses.
  auto hot = server->Optimize(StarVariant(0));
  ASSERT_TRUE(hot.ok());
  EXPECT_TRUE(hot->cache_hit);
  EXPECT_EQ(hot->stats_version, 1);
  auto warm = server->Optimize(StarVariant(1));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  auto cold = server->Optimize(StarVariant(2));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  EXPECT_EQ(cold->stats_version, 1);

  // A second rewarm finds everything fresh.
  OptimizerServer::RewarmReport again = server->Rewarm(/*top_k=*/2);
  EXPECT_EQ(again.replanned, 0);
  EXPECT_EQ(again.fresh, 2);
}

// A re-warm under a trace records every replan's slot wait and beam search,
// whether ParallelFor runs its replans inline (one stale entry) or on the
// server's pool threads (several).
TEST_F(OptimizerServerTest, TracedRewarmRecordsEveryReplan) {
  OptimizerServerOptions options = SmallOptions();
  options.num_planning_threads = 2;
  options.trace.sample_every = 1;
  auto server = MakeServer(options);
  for (int64_t region = 0; region < 3; ++region) {
    ASSERT_TRUE(server->Optimize(StarVariant(region)).ok());
  }
  for (int top_k : {1, 3}) {
    fixture_.oracle->BumpGeneration();
    std::shared_ptr<obs::Trace> trace = server->tracer()->MaybeStartTrace();
    ASSERT_NE(trace, nullptr);
    OptimizerServer::RewarmReport report;
    {
      obs::ScopedTraceContext scope(server->tracer(), trace);
      report = server->Rewarm(top_k);
    }
    ASSERT_EQ(report.replanned, top_k);
    int beam_searches = 0, queue_waits = 0;
    for (const obs::TraceSpan& span : trace->spans()) {
      beam_searches += span.stage == obs::TraceStage::kBeamSearch;
      queue_waits += span.stage == obs::TraceStage::kQueueWait;
    }
    EXPECT_EQ(beam_searches, top_k) << "top_k " << top_k;
    EXPECT_EQ(queue_waits, top_k) << "top_k " << top_k;
  }
}

// The acceptance criterion for the request tracer: one served request,
// followed by executing its plan under the same trace, yields a single
// trace whose spans cover the whole stack — serving (fingerprint, cache
// lookup, admit), planning (beam search), runtime (inference), and the
// executor (scan, join) — with at least 4 distinct stages.
TEST_F(OptimizerServerTest, TracedRequestProducesSpansAcrossTheStack) {
  OptimizerServerOptions options = SmallOptions();
  options.trace.sample_every = 1;  // trace every request
  auto server = MakeServer(options);

  auto result = server->Optimize(query_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->cache_hit);

  // The head-sampled trace is handed back with the result.
  std::shared_ptr<obs::Trace> trace = result->trace;
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(server->tracer()->traces_started(), 1);
  // A served miss records its serving- and planning-side spans, including
  // the wait for a planning slot and the inference calls, all made on the
  // requesting thread under its installed trace.
  EXPECT_TRUE(trace->HasStage(obs::TraceStage::kFingerprint));
  EXPECT_TRUE(trace->HasStage(obs::TraceStage::kCacheLookup));
  EXPECT_TRUE(trace->HasStage(obs::TraceStage::kQueueWait));
  EXPECT_TRUE(trace->HasStage(obs::TraceStage::kBeamSearch));
  EXPECT_TRUE(trace->HasStage(obs::TraceStage::kInference));
  EXPECT_TRUE(trace->HasStage(obs::TraceStage::kAdmit));

  // Execute the served plan under the same trace: the executor's scan and
  // join spans land in it too.
  Executor exec(fixture_.db.get());
  {
    obs::ScopedTraceContext scope(server->tracer(), trace);
    auto executed = exec.Execute(query_, result->plan);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  }
  EXPECT_TRUE(trace->HasStage(obs::TraceStage::kExecScan));
  EXPECT_TRUE(trace->HasStage(obs::TraceStage::kExecJoin));
  EXPECT_GE(trace->NumDistinctStages(), 4);

  // The tracer's per-stage histograms saw the same spans (they feed the
  // bench breakdown tables).
  EXPECT_GT(
      server->tracer()->stage_histogram(obs::TraceStage::kBeamSearch).Count(),
      0);
  EXPECT_GT(
      server->tracer()->stage_histogram(obs::TraceStage::kExecScan).Count(),
      0);

  // An untraced server (sampling disabled) records nothing.
  OptimizerServerOptions untraced = SmallOptions();
  untraced.trace.sample_every = 0;
  auto quiet = MakeServer(untraced);
  auto quiet_result = quiet->Optimize(query_);
  ASSERT_TRUE(quiet_result.ok());
  EXPECT_EQ(quiet_result->trace, nullptr);
  EXPECT_EQ(quiet->tracer()->traces_started(), 0);
}

// The per-outcome latency histograms replace the old single histogram: each
// request lands in exactly one outcome's distribution.
TEST_F(OptimizerServerTest, LatencyHistogramsSplitByOutcome) {
  auto server = MakeServer(SmallOptions());
  ASSERT_TRUE(server->Optimize(query_).ok());  // miss
  ASSERT_TRUE(server->Optimize(query_).ok());  // hit
  ASSERT_TRUE(server->Optimize(query_).ok());  // hit
  EXPECT_EQ(server->latency(OptimizerServer::Outcome::kMiss).Count(), 1);
  EXPECT_EQ(server->latency(OptimizerServer::Outcome::kHit).Count(), 2);
  EXPECT_EQ(server->latency(OptimizerServer::Outcome::kCoalesced).Count(), 0);
}

// A warm hit with the flight recorder off allocates two things: the
// request's canonical_rank and the remapped plan's arena. The inverse
// permutation lives on the stack.
TEST_F(OptimizerServerTest, AWarmHitMakesTwoAllocations) {
  OptimizerServerOptions options = SmallOptions();
  ASSERT_FALSE(options.flight_recorder.enabled);
  auto server = MakeServer(options);
  ASSERT_TRUE(server->Optimize(query_).ok());  // miss
  ASSERT_TRUE(server->Optimize(query_).ok());  // first hit warms the thread
  std::optional<StatusOr<OptimizerServer::OptimizeResult>> hit;
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  hit.emplace(server->Optimize(query_));
  int64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(hit->ok());
  EXPECT_TRUE((*hit)->cache_hit);
  EXPECT_EQ(allocations, 2);
}

}  // namespace
}  // namespace balsa
