// Tests for the obs layer: exactness of the lock-free primitives under
// concurrency, snapshot monotonicity (the documented guarantee of
// MetricsRegistry::Snapshot and PlanCache::Totals), histogram merge
// semantics, deterministic trace sampling, and the global kill switch.
// The concurrent tests double as the TSan stress suite (`ctest -L obs`
// runs in the TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/adaptive/reanalyze_scheduler.h"
#include "src/obs/export.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/replay_driver.h"
#include "src/stats/swappable_estimator.h"
#include "src/storage/change_log.h"
#include "test_util.h"

namespace balsa::obs {
namespace {

// Restores the global kill switch even when an assertion fails mid-test.
struct EnabledGuard {
  ~EnabledGuard() { SetEnabled(true); }
};

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 20000;
  Counter counter;
  Counter weighted;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncsPerThread; ++i) {
        counter.Inc();
        weighted.Inc(3);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kIncsPerThread);
  EXPECT_EQ(weighted.Value(), int64_t{3} * kThreads * kIncsPerThread);
}

TEST(GaugeTest, UpdateMaxKeepsHighWaterMarkUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kValuesPerThread = 10000;
  Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kValuesPerThread; ++i) {
        gauge.UpdateMax(t * kValuesPerThread + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(gauge.Value(), kThreads * kValuesPerThread - 1);
}

TEST(Log2HistogramTest, ConcurrentRecordingMatchesSerialReference) {
  constexpr int kThreads = 8;
  constexpr int kValuesPerThread = 5000;
  auto value_for = [](int t, int i) {
    // A deterministic spread across many buckets.
    return static_cast<double>(((t * kValuesPerThread + i) % 19) * 37 + 1);
  };

  Log2Histogram serial;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kValuesPerThread; ++i) serial.Record(value_for(t, i));
  }

  Log2Histogram concurrent;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kValuesPerThread; ++i) {
        concurrent.Record(value_for(t, i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(concurrent.Count(), kThreads * kValuesPerThread);
  EXPECT_TRUE(concurrent.Snapshot() == serial.Snapshot());
}

TEST(Log2HistogramTest, MergedHalvesEqualTheWhole) {
  Log2Histogram whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double value = (i % 23) * 11 + 1;
    whole.Record(value);
    (i % 2 == 0 ? left : right).Record(value);
  }
  HistogramData merged = left.Snapshot();
  merged.Merge(right.Snapshot());
  EXPECT_TRUE(merged == whole.Snapshot());
}

// The semantics the serving layer's old LatencyHistogram test pinned:
// log2 buckets separate a microsecond-scale majority from a
// millisecond-scale tail.
TEST(Log2HistogramTest, PercentilesSeparateMicrosFromMillis) {
  Log2Histogram hist;
  for (int i = 0; i < 99; ++i) hist.Record(3.0);
  hist.Record(30000.0);
  EXPECT_EQ(hist.Count(), 100);
  EXPECT_LE(hist.Percentile(50), 8.0);
  EXPECT_GE(hist.Percentile(99.5), 16000.0);
}

TEST(Log2HistogramTest, MeanUsesExactSumNotBuckets) {
  Log2Histogram hist;
  hist.Record(10);
  hist.Record(20);
  hist.Record(30);
  EXPECT_DOUBLE_EQ(hist.Snapshot().Mean(), 20.0);
}

TEST(LabeledTest, FormatsNameWithLabels) {
  EXPECT_EQ(Labeled("serving.request_us", {{"outcome", "hit"}}),
            "serving.request_us{outcome=hit}");
  EXPECT_EQ(Labeled("x", {{"a", "1"}, {"b", "2"}}), "x{a=1,b=2}");
}

TEST(MetricsRegistryTest, SnapshotMergesDuplicateNames) {
  MetricsRegistry registry;
  Counter shard_a, shard_b;
  shard_a.Inc(5);
  shard_b.Inc(7);
  Log2Histogram hist_a, hist_b;
  hist_a.Record(4);
  hist_b.Record(4);
  hist_b.Record(1000);
  Registration r1 = registry.AttachCounter("cache.hits", &shard_a);
  Registration r2 = registry.AttachCounter("cache.hits", &shard_b);
  Registration r3 = registry.AttachHistogram("cache.us", &hist_a);
  Registration r4 = registry.AttachHistogram("cache.us", &hist_b);

  const RegistrySnapshot snapshot = registry.Snapshot();
  const MetricValue* hits = snapshot.Find("cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->kind, MetricKind::kCounter);
  EXPECT_EQ(hits->value, 12);
  const MetricValue* us = snapshot.Find("cache.us");
  ASSERT_NE(us, nullptr);
  EXPECT_EQ(us->kind, MetricKind::kHistogram);
  EXPECT_EQ(us->histogram.count, 3);
}

TEST(MetricsRegistryTest, RegistrationDetachesOnDestruction) {
  MetricsRegistry registry;
  Counter counter;
  counter.Inc();
  {
    Registration r = registry.AttachCounter("scoped", &counter);
    EXPECT_EQ(registry.NumAttached(), 1u);
    EXPECT_NE(registry.Snapshot().Find("scoped"), nullptr);
  }
  EXPECT_EQ(registry.NumAttached(), 0u);
  EXPECT_EQ(registry.Snapshot().Find("scoped"), nullptr);
}

TEST(MetricsRegistryTest, RegistrationSurvivesMove) {
  MetricsRegistry registry;
  Counter counter;
  Registration outer;
  {
    Registration inner = registry.AttachCounter("moved", &counter);
    outer = std::move(inner);
  }
  EXPECT_EQ(registry.NumAttached(), 1u);
  outer.Reset();
  EXPECT_EQ(registry.NumAttached(), 0u);
}

TEST(MetricsRegistryTest, CallbackGaugeReadsAtSnapshotTime) {
  MetricsRegistry registry;
  std::atomic<int64_t> depth{3};
  Registration r = registry.AttachCallbackGauge(
      "pool.queue_depth", [&] { return depth.load(); });
  EXPECT_EQ(registry.Snapshot().Find("pool.queue_depth")->value, 3);
  depth.store(9);
  EXPECT_EQ(registry.Snapshot().Find("pool.queue_depth")->value, 9);
}

// The documented guarantee: snapshots are not atomic cuts, but every
// counter is monotone across snapshots even while writers are running.
// (PlanCache::Totals documents the same contract in terms of this test.)
TEST(MetricsRegistryTest, SnapshotCountersAreMonotoneUnderConcurrentTraffic) {
  constexpr int kWriters = 4;
  constexpr int kSnapshots = 200;
  MetricsRegistry registry;
  std::vector<std::unique_ptr<Counter>> shards;
  std::vector<Registration> registrations;
  for (int i = 0; i < kWriters; ++i) {
    shards.push_back(std::make_unique<Counter>());
    registrations.push_back(
        registry.AttachCounter("traffic.ops", shards.back().get()));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&, i] {
      while (!stop.load(std::memory_order_relaxed)) shards[i]->Inc();
    });
  }

  // Wait for the writers to actually produce traffic before sampling.
  while (registry.Snapshot().Find("traffic.ops")->value == 0) {
    std::this_thread::yield();
  }

  int64_t previous = -1;
  bool monotone = true;
  for (int i = 0; i < kSnapshots; ++i) {
    const RegistrySnapshot snapshot = registry.Snapshot();
    const MetricValue* ops = snapshot.Find("traffic.ops");
    ASSERT_NE(ops, nullptr);
    if (ops->value < previous) monotone = false;
    previous = ops->value;
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  EXPECT_TRUE(monotone);
  EXPECT_GT(previous, 0);
}

// Attach/detach churn racing recording and snapshots: the TSan stress for
// the registry lock discipline (snapshot copies entries under the lock,
// reads instruments outside it). The churned instrument outlives the loop:
// the Registration contract requires detach to happen before instrument
// death, and a snapshot that copied the entry just before a detach may
// still read the counter afterwards.
TEST(MetricsRegistryTest, AttachDetachChurnUnderConcurrentSnapshots) {
  MetricsRegistry registry;
  Counter stable;
  Registration keep = registry.AttachCounter("stable", &stable);

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    Counter transient;
    while (!stop.load(std::memory_order_relaxed)) {
      transient.Inc();
      Registration r = registry.AttachCounter("transient", &transient);
      (void)registry.Snapshot();
    }
  });
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) stable.Inc();
  });
  for (int i = 0; i < 500; ++i) {
    stable.Inc();
    const RegistrySnapshot snapshot = registry.Snapshot();
    ASSERT_NE(snapshot.Find("stable"), nullptr);
  }
  stop.store(true);
  churn.join();
  writer.join();
  EXPECT_GE(stable.Value(), 500);
}

TEST(KillSwitchTest, DisablesHistogramRecordingAndTraceSampling) {
  EnabledGuard guard;
  Log2Histogram hist;
  RequestTracerOptions options;
  options.sample_every = 1;
  RequestTracer tracer(options);

  SetEnabled(false);
  hist.Record(5);
  EXPECT_EQ(hist.Count(), 0);
  EXPECT_EQ(tracer.MaybeStartTrace(), nullptr);
  EXPECT_EQ(tracer.traces_started(), 0);

  SetEnabled(true);
  hist.Record(5);
  EXPECT_EQ(hist.Count(), 1);
  EXPECT_NE(tracer.MaybeStartTrace(), nullptr);
}

TEST(RequestTracerTest, SamplingIsDeterministicInArrivalIndex) {
  RequestTracerOptions options;
  options.sample_every = 4;

  // Two tracers with identical options sample exactly the same request
  // indices: on one thread, sampling is a pure function of the arrival
  // index. Trace ids encode (arrival k, stripe) as k * kThreadStripes +
  // stripe; id / kThreadStripes recovers the arrival index.
  RequestTracer a(options), b(options);
  std::vector<uint64_t> sampled_a, sampled_b;
  for (int i = 0; i < 64; ++i) {
    if (auto trace = a.MaybeStartTrace()) sampled_a.push_back(trace->id());
    if (auto trace = b.MaybeStartTrace()) sampled_b.push_back(trace->id());
  }
  EXPECT_EQ(sampled_a, sampled_b);
  ASSERT_EQ(sampled_a.size(), 16u);
  for (uint64_t id : sampled_a) {
    EXPECT_EQ((id / kThreadStripes) % 4, 0u) << id;
  }
  EXPECT_EQ(a.requests_seen(), 64);
  EXPECT_EQ(a.traces_started(), 16);
}

TEST(RequestTracerTest, SampleEveryZeroDisablesTracing) {
  RequestTracerOptions options;
  options.sample_every = 0;
  RequestTracer tracer(options);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(tracer.MaybeStartTrace(), nullptr);
  EXPECT_EQ(tracer.traces_started(), 0);
}

TEST(SpanTimerTest, InertWithoutContextRecordsWithOne) {
  RequestTracerOptions options;
  options.sample_every = 1;
  RequestTracer tracer(options);

  // No installed context: nothing is recorded anywhere.
  { SpanTimer span(TraceStage::kBeamSearch); }
  EXPECT_EQ(tracer.stage_histogram(TraceStage::kBeamSearch).Count(), 0);

  std::shared_ptr<Trace> trace = tracer.MaybeStartTrace();
  ASSERT_NE(trace, nullptr);
  {
    ScopedTraceContext scope(&tracer, trace);
    { SpanTimer span(TraceStage::kBeamSearch); }
    { SpanTimer span(TraceStage::kInference); }
  }
  // Context uninstalled again: inert once more.
  { SpanTimer span(TraceStage::kBeamSearch); }

  EXPECT_EQ(trace->spans().size(), 2u);
  EXPECT_TRUE(trace->HasStage(TraceStage::kBeamSearch));
  EXPECT_TRUE(trace->HasStage(TraceStage::kInference));
  EXPECT_EQ(trace->NumDistinctStages(), 2);
  EXPECT_EQ(tracer.stage_histogram(TraceStage::kBeamSearch).Count(), 1);
  EXPECT_EQ(tracer.stage_histogram(TraceStage::kInference).Count(), 1);
}

TEST(SpanTimerTest, ConcurrentSpansOnOneTraceAreAllRecorded) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  RequestTracerOptions options;
  options.sample_every = 1;
  RequestTracer tracer(options);
  std::shared_ptr<Trace> trace = tracer.MaybeStartTrace();
  ASSERT_NE(trace, nullptr);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ScopedTraceContext scope(&tracer, trace);
      for (int i = 0; i < kSpansPerThread; ++i) {
        SpanTimer span(TraceStage::kExecScan);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(trace->spans().size(),
            static_cast<size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(tracer.stage_histogram(TraceStage::kExecScan).Count(),
            kThreads * kSpansPerThread);
}

TEST(ExportTest, TextAndJsonDumpsContainAttachedMetrics) {
  MetricsRegistry registry;
  Counter requests;
  requests.Inc(42);
  Log2Histogram latency;
  latency.Record(100);
  Registration r1 = registry.AttachCounter("serving.requests", &requests);
  Registration r2 = registry.AttachHistogram("serving.request_us", &latency);

  const RegistrySnapshot snapshot = registry.Snapshot();
  const std::string text = TextDump(snapshot);
  EXPECT_NE(text.find("serving.requests"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("serving.request_us"), std::string::npos);

  const std::string json = JsonDump(snapshot);
  EXPECT_NE(json.find("\"serving.requests\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"hist\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

// The stage-breakdown caption says where its rows came from, derived from
// the tracer's sample_every and whether any span was recorded.
TEST(ExportTest, StageBreakdownCaptionNamesTheSpanSource) {
  RequestTracerOptions off;
  off.sample_every = 0;
  RequestTracer disabled(off);
  EXPECT_EQ(StageBreakdownText(disabled),
            "stage breakdown: tracing disabled\n");

  RequestTracerOptions sampled_options;
  sampled_options.sample_every = 8;
  RequestTracer sampled(sampled_options);
  EXPECT_EQ(StageBreakdownText(sampled),
            "stage breakdown: no sampled spans yet\n");
  sampled.RecordStageMicros(TraceStage::kBeamSearch, 100);
  const std::string sampled_text = StageBreakdownText(sampled);
  EXPECT_EQ(sampled_text.rfind("per-stage latency breakdown (sampled 1/8):",
                               0),
            0u)
      << sampled_text;
  EXPECT_NE(sampled_text.find("beam_search"), std::string::npos);

  // Sampling off, but a trace installed by another path (a flight-recorder
  // shell) still recorded spans: the table is not "sampled 1/0".
  auto shell = std::make_shared<Trace>(1);
  {
    ScopedTraceContext scope(&disabled, shell);
    SpanTimer span(TraceStage::kAdmit);
  }
  const std::string unsampled_text = StageBreakdownText(disabled);
  EXPECT_EQ(unsampled_text.rfind(
                "per-stage latency breakdown (sampling off; spans of traced "
                "requests only):",
                0),
            0u)
      << unsampled_text;
  EXPECT_NE(unsampled_text.find("admit"), std::string::npos);
  EXPECT_EQ(unsampled_text.find("sampled 1/"), std::string::npos);
}

/// Inverse of JsonEscape over its output alphabet (no \uXXXX above 0x1f is
/// ever emitted, so only the short escapes and \u00XX need decoding).
std::string JsonUnescape(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        out += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
        i += 4;
        break;
      default: ADD_FAILURE() << "unknown escape \\" << s[i];
    }
  }
  return out;
}

TEST(ExportTest, JsonEscapeRoundTripsHostileStrings) {
  const std::vector<std::string> hostile = {
      "plain",
      "with \"quotes\" inside",
      "back\\slash",
      "line\nbreak\tand\ttabs",
      "control\x01\x1f chars",
      "label{k=\"v\"}",
      std::string("embedded\0nul", 12),
  };
  for (const std::string& s : hostile) {
    const std::string escaped = JsonEscape(s);
    // The escaped form never contains a raw quote, backslash run that
    // breaks a string, or control byte.
    for (char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
    }
    EXPECT_EQ(JsonUnescape(escaped), s);
  }
}

TEST(ExportTest, JsonDumpEscapesHostileMetricNames) {
  MetricsRegistry registry;
  Counter counter;
  counter.Inc(7);
  // A label value with quotes and a backslash — the exact shape that used
  // to produce unparseable output.
  const std::string name = "cache.hits{path=\"C:\\temp\"}";
  Registration r = registry.AttachCounter(name, &counter);
  const std::string json = JsonDump(registry.Snapshot());
  EXPECT_NE(json.find("cache.hits{path=\\\"C:\\\\temp\\\"}"),
            std::string::npos)
      << json;
  // Structurally valid: quotes pair up and braces balance outside strings.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    if (in_string) {
      if (json[i] == '\\') ++i;
      else if (json[i] == '"') in_string = false;
    } else if (json[i] == '"') {
      in_string = true;
    } else if (json[i] == '{' || json[i] == '[') {
      ++depth;
    } else if (json[i] == '}' || json[i] == ']') {
      ASSERT_GE(--depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// --- HealthMonitor rate rings ------------------------------------------

TEST(MonitorSeriesTest, ManualTicksDeriveRatesAndHistogramSums) {
  MetricsRegistry registry;
  Counter requests;
  Log2Histogram latency;
  Registration r1 = registry.AttachCounter("serving.requests", &requests);
  Registration r2 = registry.AttachHistogram("serving.request_us", &latency);

  HealthMonitor monitor(&registry);
  monitor.EvaluateOnce();
  requests.Inc(500);
  latency.Record(100);
  latency.Record(300);
  monitor.EvaluateOnce();

  EXPECT_EQ(monitor.evaluations(), 2);
  EXPECT_EQ(monitor.series_count(), 2u);
  SeriesWindow counter_series = monitor.GetSeries("serving.requests");
  ASSERT_EQ(counter_series.points.size(), 2u);
  EXPECT_EQ(counter_series.points.back().value -
                counter_series.points.front().value,
            500);
  EXPECT_GT(counter_series.RatePerSec(), 0);
  EXPECT_DOUBLE_EQ(monitor.RatePerSec("serving.requests"),
                   counter_series.RatePerSec());

  // Histogram series carry (count, sum): what landed between the ticks.
  SeriesWindow hist_series = monitor.GetSeries("serving.request_us");
  ASSERT_EQ(hist_series.points.size(), 2u);
  EXPECT_EQ(hist_series.points.back().value -
                hist_series.points.front().value,
            2);
  EXPECT_EQ(hist_series.points.back().sum - hist_series.points.front().sum,
            400);

  EXPECT_TRUE(monitor.GetSeries("absent").points.empty());
  EXPECT_EQ(monitor.RatePerSec("absent"), 0);
}

TEST(MonitorSeriesTest, RingRetainsOnlyTheConfiguredWindow) {
  MetricsRegistry registry;
  Counter c;
  Registration r = registry.AttachCounter("c", &c);
  HealthMonitorOptions options;
  options.ring_capacity = 4;
  HealthMonitor monitor(&registry, options);
  for (int i = 0; i < 10; ++i) {
    c.Inc();
    monitor.EvaluateOnce();
  }
  SeriesWindow series = monitor.GetSeries("c");
  ASSERT_EQ(series.points.size(), 4u);
  // Oldest retained point is tick 7 of 10 (values 7..10 survive).
  EXPECT_EQ(series.points.front().value, 7);
  EXPECT_EQ(series.points.front().tick, 7);
  EXPECT_EQ(series.points.back().value, 10);
}

TEST(MonitorSeriesTest, BackgroundThreadTicksConcurrentlyWithWriters) {
  MetricsRegistry registry;
  Counter c;
  Log2Histogram h;
  Registration r1 = registry.AttachCounter("writes", &c);
  Registration r2 = registry.AttachHistogram("write_us", &h);

  HealthMonitorOptions options;
  options.interval_ms = 1;
  HealthMonitor monitor(&registry, options);
  EXPECT_FALSE(monitor.running());
  monitor.Start();
  EXPECT_TRUE(monitor.running());

  // Writers hammer the instruments while the monitor thread snapshots them
  // (the TSan job proves this pairing race-free).
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        c.Inc();
        h.Record(i % 1024);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  monitor.Stop();
  EXPECT_FALSE(monitor.running());
  const int64_t taken = monitor.evaluations();
  EXPECT_GE(taken, 1);
  monitor.EvaluateOnce();  // close the window after the writers finish
  EXPECT_EQ(monitor.evaluations(), taken + 1);

  SeriesWindow series = monitor.GetSeries("writes");
  ASSERT_GE(series.points.size(), 2u);
  EXPECT_EQ(series.points.back().value, 4 * 20000);

  // Stop is idempotent and Start/Stop can cycle.
  monitor.Stop();
  monitor.Start();
  monitor.Stop();
}

// The acceptance bar for the monitor's derived rates: two ticks bracketing
// a closed-loop replay must reproduce the driver's own measured QPS within
// 10%. The server plans every request from scratch (cache off) so
// per-request work dwarfs the fixed bracketing overhead the rate window
// adds over the driver's wall clock.
TEST(MonitorSeriesTest, BracketedRateMatchesReplayDriverQps) {
  balsa::testing::StarFixture fixture = balsa::testing::MakeStarFixture();
  Featurizer featurizer(&fixture.schema(), fixture.estimator.get());
  ValueNetConfig config;
  config.query_dim = featurizer.query_dim();
  config.node_dim = featurizer.node_dim();
  config.tree_hidden1 = 16;
  config.tree_hidden2 = 8;
  config.mlp_hidden = 8;
  config.init_seed = 11;
  ValueNetwork network(config);

  MetricsRegistry registry;
  OptimizerServerOptions options;
  options.planner.beam_size = 5;
  options.planner.top_k = 2;
  options.cache.shard_capacity = 0;  // every request pays a beam search
  options.coalesce_misses = false;
  options.metrics = &registry;
  OptimizerServer server(&fixture.schema(), &featurizer, &network,
                         fixture.oracle.get(), options);

  std::vector<Query> variants;
  for (int region = 0; region < 6; ++region) {
    QueryBuilder builder(&fixture.schema(), "v" + std::to_string(region));
    auto query = builder.From("sales", "s")
                     .From("customer", "c")
                     .From("product", "p")
                     .JoinEq("s.customer_id", "c.id")
                     .JoinEq("s.product_id", "p.id")
                     .Filter("c.region", PredOp::kEq, region)
                     .Build();
    ASSERT_TRUE(query.ok());
    variants.push_back(std::move(query).value());
    variants.back().set_id(region);
  }
  std::vector<const Query*> workload;
  for (const Query& q : variants) workload.push_back(&q);

  ReplayOptions replay;
  replay.num_clients = 4;
  replay.requests_per_client = 150;
  replay.zipf_s = 0.9;
  replay.seed = 3;

  HealthMonitor monitor(&registry);
  monitor.EvaluateOnce();
  auto report = ReplayWorkload(&server, workload, replay);
  monitor.EvaluateOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->requests_per_sec, 0);

  const double sampled_qps = monitor.RatePerSec("serving.requests");
  ASSERT_GT(sampled_qps, 0);
  EXPECT_NEAR(sampled_qps / report->requests_per_sec, 1.0, 0.10)
      << "sampled " << sampled_qps << " vs driver "
      << report->requests_per_sec;
}

// The exported metric names are an interface: statusz, dashboards and the
// benches read them by name. A fully armed server (registry plus flight
// recorder), the database, the change log and the re-ANALYZE scheduler all
// attach to one registry, and the sorted name set must match exactly.
TEST(MetricNamesTest, FullyArmedStackExportsExactNameSet) {
  MetricsRegistry registry;  // declared first: outlives every attachment
  balsa::testing::StarFixture fixture = balsa::testing::MakeStarFixture();
  SwappableEstimator swappable(fixture.estimator);
  ChangeLog log(fixture.db.get());
  Featurizer featurizer(&fixture.schema(), &swappable);
  ValueNetConfig config;
  config.query_dim = featurizer.query_dim();
  config.node_dim = featurizer.node_dim();
  config.tree_hidden1 = 16;
  config.tree_hidden2 = 8;
  config.mlp_hidden = 8;
  ValueNetwork network(config);

  OptimizerServerOptions options;
  options.metrics = &registry;
  options.flight_recorder.enabled = true;
  OptimizerServer server(&fixture.schema(), &featurizer, &network,
                         fixture.oracle.get(), options);
  fixture.db->AttachMetrics(&registry);
  log.AttachMetrics(&registry);
  ReanalyzeScheduler scheduler(fixture.db.get(), &log, fixture.oracle.get(),
                               &swappable, &server);
  scheduler.AttachMetrics(&registry);
  scheduler.AttachMetrics(&registry);  // a second call replaces the first
  scheduler.RunOnce();

  const RegistrySnapshot snapshot = registry.Snapshot();
  const MetricValue* passes = snapshot.Find("adaptive.passes");
  ASSERT_NE(passes, nullptr);
  EXPECT_EQ(passes->value, 1);  // attached once, not merged twice
  std::vector<std::string> names;
  for (const MetricValue& m : snapshot.metrics) names.push_back(m.name);
  const std::vector<std::string> expected = {
      "adaptive.bumps",
      "adaptive.drift_score_milli",
      "adaptive.errors",
      "adaptive.full_reanalyzes",
      "adaptive.incremental_merges",
      "adaptive.max_drift_score_milli",
      "adaptive.passes",
      "adaptive.reanalyze_us",
      "adaptive.rewarm_replans",
      "runtime.inference.items",
      "runtime.inference.requests",
      "runtime.pool.queue_depth",
      "runtime.pool.wait_us",
      "serving.coalesced",
      "serving.flight_recorder.completions",
      "serving.flight_recorder.evicted",
      "serving.flight_recorder.retained",
      "serving.hits",
      "serving.misses",
      "serving.plan_cache.approx_bytes",
      "serving.plan_cache.entries",
      "serving.plan_cache.hits",
      "serving.plan_cache.insertions",
      "serving.plan_cache.lru_evictions",
      "serving.plan_cache.misses",
      "serving.plan_cache.stale_evictions",
      "serving.planned",
      "serving.request_us{outcome=coalesced}",
      "serving.request_us{outcome=hit}",
      "serving.request_us{outcome=miss}",
      "serving.requests",
      "serving.rewarmed",
      "serving.stage_us{stage=admit}",
      "serving.stage_us{stage=beam_search}",
      "serving.stage_us{stage=cache_lookup}",
      "serving.stage_us{stage=coalesce_wait}",
      "serving.stage_us{stage=exec_join}",
      "serving.stage_us{stage=exec_scan}",
      "serving.stage_us{stage=fingerprint}",
      "serving.stage_us{stage=inference}",
      "serving.stage_us{stage=queue_wait}",
      "serving.stage_us{stage=reanalyze}",
      "serving.traces",
      "storage.changelog.batches",
      "storage.changelog.rebase_epoch_lag",
      "storage.changelog.rows_deleted",
      "storage.changelog.rows_inserted",
      "storage.changelog.values_updated",
      "storage.chunks_copied",
      "storage.chunks_shared",
      "storage.publication_epoch",
      "storage.publications",
      "storage.retained_bytes",
  };
  EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace balsa::obs
