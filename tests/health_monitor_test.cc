// Tests for the SLO health monitor: delta-window semantics (the first tick
// establishes a baseline instead of judging all-time cumulatives; a p99
// rule fires on what happened since the last tick and resolves on its
// own), for_ticks/clear_ticks hysteresis, every rule kind, the bounded
// transition log, option clamping, graceful handling of missing metrics,
// and tick serialization when manual ticks race the background thread.
// Apart from those last two, ticks are driven through the public
// EvaluateOnce() — no threads, no clocks. Runs under `ctest -L obs` (the
// TSan job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/health.h"
#include "src/obs/metrics.h"

namespace balsa::obs {
namespace {

TEST(HealthMonitorTest, FirstTickIsBaselineNotCumulativeJudgement) {
  MetricsRegistry registry;
  Log2Histogram latency;
  auto reg = registry.AttachHistogram("req_us", &latency);
  // A terrible all-time history recorded *before* the monitor's first look.
  for (int i = 0; i < 100; ++i) latency.Record(1e6);

  HealthMonitor monitor(&registry);
  HealthRule rule;
  rule.name = "p99";
  rule.kind = RuleKind::kWindowP99Above;
  rule.metric = "req_us";
  rule.threshold = 10;
  monitor.AddRule(rule);

  monitor.EvaluateOnce();  // prev == cur: delta 0, nothing to judge
  monitor.EvaluateOnce();  // quiet window: still 0
  EXPECT_EQ(monitor.FiringCount(), 0);
  EXPECT_TRUE(monitor.Events().empty());
}

TEST(HealthMonitorTest, WindowP99FiresOnStormAndResolvesAfterIt) {
  MetricsRegistry registry;
  Log2Histogram latency;
  auto reg = registry.AttachHistogram("req_us", &latency);

  HealthMonitor monitor(&registry);
  HealthRule rule;
  rule.name = "p99";
  rule.kind = RuleKind::kWindowP99Above;
  rule.metric = "req_us";
  rule.threshold = 1000;
  monitor.AddRule(rule);

  monitor.EvaluateOnce();  // baseline
  for (int i = 0; i < 50; ++i) latency.Record(5000);
  monitor.EvaluateOnce();  // the storm window
  EXPECT_TRUE(monitor.IsFiring("p99"));
  // A cumulative p99 would stay poisoned by the storm forever; the delta
  // window forgets it after one quiet tick.
  monitor.EvaluateOnce();
  EXPECT_FALSE(monitor.IsFiring("p99"));

  const std::vector<AlertEvent> events = monitor.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].firing);
  EXPECT_EQ(events[0].tick, 2);
  EXPECT_GT(events[0].value, rule.threshold);
  EXPECT_FALSE(events[1].firing);
  EXPECT_EQ(events[1].tick, 3);
}

TEST(HealthMonitorTest, HysteresisNeedsConsecutiveTicksBothWays) {
  MetricsRegistry registry;
  Log2Histogram latency;
  auto reg = registry.AttachHistogram("req_us", &latency);

  HealthMonitor monitor(&registry);
  HealthRule rule;
  rule.name = "p99";
  rule.kind = RuleKind::kWindowP99Above;
  rule.metric = "req_us";
  rule.threshold = 1000;
  rule.for_ticks = 2;
  rule.clear_ticks = 2;
  monitor.AddRule(rule);

  auto breach = [&] {
    for (int i = 0; i < 20; ++i) latency.Record(5000);
    monitor.EvaluateOnce();
  };
  monitor.EvaluateOnce();  // baseline
  breach();                // 1 breached tick: not yet
  EXPECT_FALSE(monitor.IsFiring("p99"));
  breach();                // 2 consecutive: fires
  EXPECT_TRUE(monitor.IsFiring("p99"));
  monitor.EvaluateOnce();  // 1 healthy tick: still firing
  EXPECT_TRUE(monitor.IsFiring("p99"));
  monitor.EvaluateOnce();  // 2 consecutive: resolves
  EXPECT_FALSE(monitor.IsFiring("p99"));

  const std::vector<RuleStatus> rules = monitor.Rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].times_fired, 1);
}

TEST(HealthMonitorTest, RateRuleJudgesPerTickIncrease) {
  MetricsRegistry registry;
  Counter errors;
  auto reg = registry.AttachCounter("errors", &errors);
  // A large pre-existing total must not trip a rate rule.
  errors.Inc(100);

  HealthMonitor monitor(&registry);
  HealthRule rule;
  rule.name = "error-rate";
  rule.kind = RuleKind::kWindowRateAbove;
  rule.metric = "errors";
  rule.threshold = 5;
  monitor.AddRule(rule);

  monitor.EvaluateOnce();  // baseline swallows the 100
  EXPECT_FALSE(monitor.IsFiring("error-rate"));
  errors.Inc(10);
  monitor.EvaluateOnce();
  EXPECT_TRUE(monitor.IsFiring("error-rate"));
  errors.Inc(2);
  monitor.EvaluateOnce();
  EXPECT_FALSE(monitor.IsFiring("error-rate"));
}

TEST(HealthMonitorTest, GaugeRuleIsInstantaneous) {
  MetricsRegistry registry;
  Gauge depth;
  auto reg = registry.AttachGauge("queue_depth", &depth);
  depth.Set(50);

  HealthMonitor monitor(&registry);
  HealthRule rule;
  rule.name = "saturated";
  rule.kind = RuleKind::kGaugeAbove;
  rule.metric = "queue_depth";
  rule.threshold = 32;
  monitor.AddRule(rule);

  // Gauges are levels, not flows: no baseline tick needed.
  monitor.EvaluateOnce();
  EXPECT_TRUE(monitor.IsFiring("saturated"));
  depth.Set(3);
  monitor.EvaluateOnce();
  EXPECT_FALSE(monitor.IsFiring("saturated"));
}

TEST(HealthMonitorTest, EventLogIsBoundedOldestEvicted) {
  MetricsRegistry registry;
  Gauge depth;
  auto reg = registry.AttachGauge("queue_depth", &depth);

  HealthMonitor monitor(&registry);
  HealthRule rule;
  rule.name = "saturated";
  rule.kind = RuleKind::kGaugeAbove;
  rule.metric = "queue_depth";
  rule.threshold = 10;
  monitor.AddRule(rule);

  // 70 full fire/resolve cycles = 140 transitions, one per tick; only the
  // last 128 survive.
  for (int cycle = 0; cycle < 70; ++cycle) {
    depth.Set(100);
    monitor.EvaluateOnce();
    depth.Set(0);
    monitor.EvaluateOnce();
  }
  const std::vector<AlertEvent> events = monitor.Events();
  ASSERT_EQ(events.size(), 128u);
  EXPECT_EQ(events.size(), kMaxAlertEvents);
  EXPECT_EQ(events.front().tick, 13);
  EXPECT_TRUE(events.front().firing);
  EXPECT_EQ(events.back().tick, 140);
  const std::vector<RuleStatus> rules = monitor.Rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].times_fired, 70);
}

TEST(HealthMonitorTest, MissingMetricEvaluatesToZero) {
  MetricsRegistry registry;
  HealthMonitor monitor(&registry);
  HealthRule rule;
  rule.name = "ghost";
  rule.kind = RuleKind::kWindowP99Above;
  rule.metric = "does.not.exist";
  rule.threshold = 1;
  monitor.AddRule(rule);

  monitor.EvaluateOnce();
  monitor.EvaluateOnce();
  EXPECT_FALSE(monitor.IsFiring("ghost"));
  const std::vector<RuleStatus> rules = monitor.Rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].last_value, 0);
}

TEST(HealthMonitorTest, OutOfRangeOptionsAreClampedOnce) {
  MetricsRegistry registry;
  Gauge depth;
  auto reg = registry.AttachGauge("queue_depth", &depth);

  HealthMonitorOptions options;
  options.interval_ms = 0;    // unclamped: a deadline in the past, a spin
  options.ring_capacity = 0;  // clamps to the two points a rate needs
  HealthMonitor monitor(&registry, options);
  HealthRule rule;
  rule.name = "saturated";
  rule.kind = RuleKind::kGaugeAbove;
  rule.metric = "queue_depth";
  rule.threshold = 10;
  monitor.AddRule(rule);

  depth.Set(100);
  monitor.EvaluateOnce();
  depth.Set(0);
  monitor.EvaluateOnce();
  monitor.EvaluateOnce();
  EXPECT_EQ(monitor.Events().size(), 2u);
  EXPECT_EQ(monitor.Rules()[0].times_fired, 1);
  EXPECT_EQ(monitor.GetSeries("queue_depth").points.size(), 2u);

  // interval_ms clamps to 1: after its immediate first tick the thread
  // waits at least 1ms per tick instead of spinning.
  const int64_t before = monitor.evaluations();
  const auto start = std::chrono::steady_clock::now();
  monitor.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  monitor.Stop();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  const int64_t ticks = monitor.evaluations() - before;
  EXPECT_GE(ticks, 1);
  EXPECT_LE(static_cast<double>(ticks), elapsed_ms + 1);
}

// Manual ticks from two threads racing the background thread: each tick's
// snapshot, timestamp, ring append and judgement happen as one step, so a
// tick never judges an older snapshot against a newer one.
TEST(HealthMonitorTest, ManualTicksRacingTheThreadStayInTimeOrder) {
  MetricsRegistry registry;
  Counter writes;
  auto reg = registry.AttachCounter("writes", &writes);

  HealthMonitorOptions options;
  options.interval_ms = 1;
  options.ring_capacity = 1 << 16;  // retain every tick
  HealthMonitor monitor(&registry, options);
  // Counter deltas are integers, so a negative window value is <= -1: it
  // would resolve this rule, which fires on the first tick (delta 0).
  HealthRule rule;
  rule.name = "never-negative";
  rule.kind = RuleKind::kWindowRateAbove;
  rule.metric = "writes";
  rule.threshold = -0.5;
  monitor.AddRule(rule);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    while (!done.load(std::memory_order_relaxed)) writes.Inc();
  });
  monitor.Start();
  std::vector<std::thread> tickers;
  for (int t = 0; t < 2; ++t) {
    tickers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) monitor.EvaluateOnce();
    });
  }
  for (std::thread& t : tickers) t.join();
  monitor.Stop();
  done.store(true);
  writer.join();

  const std::vector<RuleStatus> rules = monitor.Rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].state, AlertState::kFiring);
  EXPECT_EQ(rules[0].times_fired, 1);
  EXPECT_EQ(monitor.Events().size(), 1u);

  const SeriesWindow series = monitor.GetSeries("writes");
  ASSERT_EQ(static_cast<int64_t>(series.points.size()),
            monitor.evaluations());
  for (size_t i = 1; i < series.points.size(); ++i) {
    const SamplePoint& before = series.points[i - 1];
    const SamplePoint& after = series.points[i];
    ASSERT_EQ(after.tick, before.tick + 1) << "tick numbers are unique";
    ASSERT_GE(after.t_seconds, before.t_seconds);
    ASSERT_GE(after.value, before.value);
  }
}

}  // namespace
}  // namespace balsa::obs
