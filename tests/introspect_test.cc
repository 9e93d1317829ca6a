// Introspection end-to-end: EXPLAIN ANALYZE actuals are bitwise-equal to
// per-node Execute results, profiling never perturbs execution, the flight
// recorder retains misses and row-capped requests with the request's own
// stage spans, and the statusz page renders from live serving state.
#include "src/introspect/explain.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/introspect/statusz.h"
#include "src/obs/health.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/replay_driver.h"
#include "test_util.h"

namespace balsa {
namespace {

/// Minimal JSON syntax check: quotes pair up (with escapes) and braces /
/// brackets balance outside strings. Enough to catch a renderer emitting a
/// structurally broken line.
bool JsonParses(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && !s.empty() && s.front() == '{';
}

class IntrospectTest : public ::testing::Test {
 protected:
  IntrospectTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        executor_(fixture_.db.get()) {}

  /// Left-deep 4-relation plan over the star query:
  /// ((sales x customer) x product) x store.
  Plan StarPlan() {
    Plan plan;
    int s = plan.AddScan(0, ScanOp::kSeqScan);
    int c = plan.AddScan(1, ScanOp::kSeqScan);
    int p = plan.AddScan(2, ScanOp::kSeqScan);
    int st = plan.AddScan(3, ScanOp::kSeqScan);
    int sc = plan.AddJoin(s, c, JoinOp::kHashJoin);
    int scp = plan.AddJoin(sc, p, JoinOp::kHashJoin);
    plan.set_root(plan.AddJoin(scp, st, JoinOp::kHashJoin));
    BALSA_CHECK(plan.Validate(), "star plan");
    return plan;
  }

  testing::StarFixture fixture_;
  Query query_;
  Executor executor_;
};

TEST_F(IntrospectTest, ExplainAnalyzeActualsMatchPerNodeExecuteBitwise) {
  const Plan plan = StarPlan();
  auto explained = introspect::ExplainAnalyze(executor_, query_, plan,
                                              fixture_.estimator.get());
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_TRUE(explained->analyzed);
  EXPECT_GT(explained->total_micros, 0);

  // Every node in the tree: its reported actual cardinality equals an
  // independent Execute of that subtree, bitwise.
  int checked = 0;
  for (int idx = 0; idx < plan.num_nodes(); ++idx) {
    const introspect::ExplainNode* node = explained->node(idx);
    ASSERT_NE(node, nullptr);
    ASSERT_TRUE(node->analyzed);
    auto sub = executor_.Execute(query_, plan, idx);
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    EXPECT_EQ(node->actual_rows, sub->NumRows()) << "node " << idx;
    // With an estimator attached every node carries a Q-error >= 1.
    EXPECT_GE(node->q_error, 1.0) << "node " << idx;
    ++checked;
  }
  EXPECT_EQ(checked, 7);  // 4 scans + 3 joins
  EXPECT_GE(explained->max_q_error, 1.0);
}

TEST_F(IntrospectTest, ProfiledExecutionIsBitwiseIdenticalToUnprofiled) {
  const Plan plan = StarPlan();
  auto plain = executor_.Execute(query_, plan);
  ASSERT_TRUE(plain.ok());

  ExecutionProfile profile;
  auto prof = executor_.ExecuteProfiled(query_, plan, &profile);
  ASSERT_TRUE(prof.ok());

  EXPECT_EQ(plain->rels, prof->rels);
  EXPECT_EQ(plain->tuples, prof->tuples);
  EXPECT_EQ(plain->capped, prof->capped);
}

TEST_F(IntrospectTest, ScanProfilesReportPathTaken) {
  // sales has no filters: full chunked scan, no index.
  NodeProfile full;
  ASSERT_TRUE(executor_.Scan(query_, 0, &full).ok());
  EXPECT_FALSE(full.used_index);
  EXPECT_GT(full.chunks_total, 0);
  EXPECT_GT(full.rows_out, 0);

  // customer has an equality filter: served from the hash index.
  NodeProfile indexed;
  ASSERT_TRUE(executor_.Scan(query_, 1, &indexed).ok());
  EXPECT_TRUE(indexed.used_index);
  EXPECT_EQ(indexed.chunks_total, 0);
}

TEST_F(IntrospectTest, RowCapMarksNodeAndPlanCapped) {
  const Plan plan = StarPlan();
  ExecutorOptions options;
  options.row_cap = 8;  // far below the star join's intermediates
  Executor tiny(executor_.snapshot(), options);
  ExecutionProfile profile;
  auto result = tiny.ExecuteProfiled(query_, plan, &profile);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->capped);
  EXPECT_TRUE(profile.AnyCapped());

  auto explained = introspect::ExplainAnalyze(tiny, query_, plan,
                                              fixture_.estimator.get());
  ASSERT_TRUE(explained.ok());
  EXPECT_TRUE(explained->any_capped);
  EXPECT_NE(explained->ToText().find("CAPPED"), std::string::npos);
}

TEST_F(IntrospectTest, ExplainPlanAnnotatesEstimatesWithoutExecuting) {
  const Plan plan = StarPlan();
  introspect::PlanExplain explained =
      introspect::ExplainPlan(query_, plan, fixture_.estimator.get());
  EXPECT_FALSE(explained.analyzed);
  for (int idx = 0; idx < plan.num_nodes(); ++idx) {
    const introspect::ExplainNode* node = explained.node(idx);
    ASSERT_NE(node, nullptr);
    EXPECT_GE(node->est_rows, 0) << "node " << idx;
    EXPECT_FALSE(node->analyzed);
  }
  const std::string text = explained.ToText();
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("SeqScan(s)"), std::string::npos);
  EXPECT_EQ(text.find("act="), std::string::npos);
}

TEST_F(IntrospectTest, ExplainJsonIsWellFormed) {
  const Plan plan = StarPlan();
  auto explained = introspect::ExplainAnalyze(executor_, query_, plan,
                                              fixture_.estimator.get());
  ASSERT_TRUE(explained.ok());
  const std::string json = explained->ToJson();
  EXPECT_TRUE(JsonParses(json)) << json;
  EXPECT_NE(json.find("\"query\":\"star4\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"actual_rows\":"), std::string::npos);
}

TEST(QErrorTest, ClampsAndSymmetric) {
  EXPECT_DOUBLE_EQ(introspect::QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(introspect::QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(introspect::QError(10, 100), 10.0);
  // Both sides clamp to one row: an estimate of 0.2 for an empty result is
  // not an error at all.
  EXPECT_DOUBLE_EQ(introspect::QError(0.2, 0), 1.0);
  EXPECT_DOUBLE_EQ(introspect::QError(0, 50), 50.0);
}

// --- Serving-side introspection -----------------------------------------

class RetentionTest : public ::testing::Test {
 protected:
  RetentionTest()
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

  /// A server with the flight recorder on; its store holds every request
  /// these tests send (top-K alone is larger than any test's traffic).
  std::unique_ptr<OptimizerServer> MakeServer(
      OptimizerServerOptions options) {
    options.flight_recorder.enabled = true;
    options.flight_recorder.top_k = 512;
    options.planner.beam_size = 5;
    options.planner.top_k = 2;
    return std::make_unique<OptimizerServer>(&fixture_.schema(), &featurizer_,
                                             network_.get(),
                                             fixture_.oracle.get(), options);
  }

  /// Star-query filter variants (distinct fingerprints) for Zipf replays.
  std::vector<Query> Variants(int n) {
    std::vector<Query> queries;
    for (int region = 0; region < n; ++region) {
      QueryBuilder builder(&fixture_.schema(), "star_v" + std::to_string(region));
      auto query = builder.From("sales", "s")
                       .From("customer", "c")
                       .From("product", "p")
                       .JoinEq("s.customer_id", "c.id")
                       .JoinEq("s.product_id", "p.id")
                       .Filter("c.region", PredOp::kEq, region)
                       .Build();
      BALSA_CHECK(query.ok(), "variant");
      Query q = std::move(query).value();
      q.set_id(region);
      queries.push_back(std::move(q));
    }
    return queries;
  }

  /// Serves the 4-relation star query, executes its plan under the
  /// request's own trace with a row cap the join pipeline must hit, and
  /// reports the profile back.
  void ServeAndExecuteCapped(OptimizerServer* server) {
    auto served = server->Optimize(query_);
    ASSERT_TRUE(served.ok());
    ASSERT_NE(served->trace, nullptr);
    ExecutorOptions exec_options;
    exec_options.row_cap = 8;
    Executor executor(fixture_.db.get(), exec_options);
    ExecutionProfile profile;
    obs::ScopedTraceContext scope(server->tracer(), served->trace);
    auto executed = executor.ExecuteProfiled(query_, served->plan, &profile);
    ASSERT_TRUE(executed.ok());
    ASSERT_TRUE(profile.AnyCapped());
    server->RecordExecution(query_, *served, profile);
  }

  static std::vector<obs::RetainedTrace> Capped(
      const OptimizerServer& server) {
    std::vector<obs::RetainedTrace> capped;
    for (const obs::RetainedTrace& entry :
         server.flight_recorder().Retained()) {
      if (entry.capped) capped.push_back(entry);
    }
    return capped;
  }

  testing::StarFixture fixture_;
  Query query_;
  Featurizer featurizer_;
  std::unique_ptr<ValueNetwork> network_;
};

TEST_F(RetentionTest, RetainedMissCarriesRequestStructure) {
  OptimizerServerOptions options;
  options.trace.sample_every = 0;  // the miss gets the store's lazy shell
  auto server = MakeServer(options);

  auto miss = server->Optimize(query_);
  ASSERT_TRUE(miss.ok());
  ASSERT_TRUE(server->Optimize(query_).ok());  // hit

  std::vector<obs::RetainedTrace> misses;
  for (const obs::RetainedTrace& entry :
       server->flight_recorder()->Retained()) {
    if (std::string(entry.outcome) == "miss") misses.push_back(entry);
  }
  ASSERT_EQ(misses.size(), 1u);
  const obs::RetainedTrace& e = misses[0];
  EXPECT_EQ(e.query_name, "star4");
  EXPECT_NE(e.fingerprint, 0u);
  EXPECT_EQ(e.fingerprint, miss->fingerprint);
  EXPECT_GT(e.latency_us, 0);
  EXPECT_EQ(e.stats_version, miss->stats_version);
  EXPECT_EQ(e.data_epoch, miss->data_epoch);
  EXPECT_FALSE(e.capped);
  // The miss's lazily armed shell is the trace handed back with the result.
  ASSERT_NE(miss->trace, nullptr);
  EXPECT_EQ(e.trace_id, miss->trace->id());
  EXPECT_TRUE(e.trace->HasStage(obs::TraceStage::kBeamSearch));
}

TEST_F(RetentionTest, ZipfReplayWithInjectedRowCapPlanIsCaptured) {
  OptimizerServerOptions options;
  options.trace.sample_every = 1;  // serve-side spans from fingerprint on
  auto server = MakeServer(options);

  // A short Zipf replay: background traffic, none of it row-capped.
  std::vector<Query> variants = Variants(6);
  std::vector<const Query*> workload;
  for (const Query& q : variants) workload.push_back(&q);
  ReplayOptions replay;
  replay.num_clients = 4;
  replay.requests_per_client = 40;
  replay.zipf_s = 0.9;
  replay.seed = 5;
  auto report = ReplayWorkload(server.get(), workload, replay);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(Capped(*server).empty());

  ASSERT_NO_FATAL_FAILURE(ServeAndExecuteCapped(server.get()));

  const std::vector<obs::RetainedTrace> capped = Capped(*server);
  ASSERT_EQ(capped.size(), 1u);
  const obs::RetainedTrace& e = capped[0];
  EXPECT_EQ(e.query_name, "star4");
  EXPECT_GT(e.exec_micros, 0);
  EXPECT_NE(e.plan_summary.find("("), std::string::npos);

  // The entry carries the request's spans: serving stages plus the
  // executor's, at least 4 distinct.
  ASSERT_NE(e.trace, nullptr);
  std::set<obs::TraceStage> stages;
  for (const obs::TraceSpan& span : e.trace->spans()) stages.insert(span.stage);
  EXPECT_GE(stages.size(), 4u);
  EXPECT_TRUE(stages.count(obs::TraceStage::kFingerprint) > 0);
  EXPECT_TRUE(stages.count(obs::TraceStage::kExecScan) > 0);

  // Its line in the store's JSONL export is one parseable object.
  const std::string line = obs::TraceStore::RetainedJson(e);
  EXPECT_TRUE(JsonParses(line)) << line;
  EXPECT_NE(line.find("\"capped\":true"), std::string::npos);
  EXPECT_NE(line.find("\"spans\":["), std::string::npos);
  EXPECT_NE(server->flight_recorder()->ToJsonl().find(line), std::string::npos);
}

TEST_F(RetentionTest, StatuszRendersFromLiveServingState) {
  obs::MetricsRegistry registry;
  OptimizerServerOptions options;
  options.metrics = &registry;
  auto server = MakeServer(options);
  ASSERT_TRUE(server->Optimize(query_).ok());
  ASSERT_TRUE(server->Optimize(query_).ok());

  // One monitor feeds both the rates and the alerts section.
  obs::HealthMonitor monitor(&registry);
  obs::HealthRule rule;
  rule.name = "miss-rate";
  rule.kind = obs::RuleKind::kWindowRateAbove;
  rule.metric = "serving.misses";
  rule.threshold = 1000;
  monitor.AddRule(rule);
  monitor.EvaluateOnce();
  ASSERT_NO_FATAL_FAILURE(ServeAndExecuteCapped(server.get()));
  monitor.EvaluateOnce();

  introspect::StatuszSources sources;
  sources.registry = &registry;
  sources.monitor = &monitor;
  sources.server = server.get();
  const std::string text = introspect::StatuszText(sources);
  EXPECT_NE(text.find("== statusz =="), std::string::npos);
  EXPECT_NE(text.find("serving: 3 requests"), std::string::npos);
  EXPECT_NE(text.find("row-capped / errored requests"), std::string::npos);
  EXPECT_NE(text.find("star4"), std::string::npos);
  EXPECT_NE(text.find(" capped: "), std::string::npos);
  EXPECT_NE(text.find(" req/s"), std::string::npos);
  EXPECT_NE(text.find("alerts: 0 firing / 1 rules"), std::string::npos);
  EXPECT_NE(text.find("sampler: 2 ticks over "), std::string::npos);

  const std::string json = introspect::StatuszJson(sources);
  EXPECT_TRUE(JsonParses(json)) << json;
  EXPECT_NE(json.find("\"requests\":3"), std::string::npos);
  EXPECT_NE(json.find("\"capped_or_errored\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"capped\":true"), std::string::npos);
  EXPECT_NE(json.find("\"query\":\"star4\""), std::string::npos);
  EXPECT_NE(json.find("\"qps\":"), std::string::npos);
  EXPECT_NE(json.find("\"sampler\":{\"ticks\":2,\"series\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"alerts\":{\"firing\":0,\"rules\":[{"
                      "\"name\":\"miss-rate\""),
            std::string::npos);

  // Statusz degrades gracefully to a bare registry: no monitor, no server.
  introspect::StatuszSources bare;
  bare.registry = &registry;
  const std::string bare_json = introspect::StatuszJson(bare);
  EXPECT_TRUE(JsonParses(bare_json));
  EXPECT_EQ(bare_json.find("\"alerts\""), std::string::npos);
}

}  // namespace
}  // namespace balsa
