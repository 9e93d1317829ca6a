// The obs ticker and SLO health monitor. Cumulative instruments answer
// "how much ever"; a live system needs "how fast right now" and "is it bad
// right now". Each tick (every interval_ms on the background thread) takes
// one registry Snapshot() and
//   - appends a (time, value, sum) point to every metric's ring of the last
//     ring_capacity ticks; a rate is the delta between the oldest and
//     newest retained points, an average over the window, never an
//     instantaneous guess;
//   - judges declarative rules over per-metric deltas against the previous
//     tick (bucket-wise for histograms), so "window p99 of
//     serving.request_us{outcome=miss} above 5ms" fires on what happened
//     *since the last tick* and resolves on its own once the storm passes
//     (a cumulative p99 never forgets a bad minute; a delta p99 does).
//
// Rule kinds:
//   - kWindowP99Above:  p99 of the histogram's delta buckets this tick
//   - kWindowRateAbove: counter increase this tick
//   - kGaugeAbove:      the gauge's instantaneous value
//
// Transitions have hysteresis: a rule fires only after `for_ticks`
// consecutive breached evaluations and resolves only after `clear_ticks`
// consecutive healthy ones. Every transition lands in an event log of the
// last kMaxAlertEvents transitions (oldest evicted) that statusz renders as
// the `alerts` section.
//
// EvaluateOnce() is public and the background thread calls exactly it, so
// tests and benches drive deterministic ticks without a thread or a clock.
// Ticks are serialized: one racing the thread runs wholly before or after.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/thread_annotations.h"

namespace balsa::obs {

enum class RuleKind : int {
  kWindowP99Above = 0,
  kWindowRateAbove,
  kGaugeAbove,
};
const char* RuleKindName(RuleKind kind);

struct HealthRule {
  /// Stable identifier ("planning-stall"); also the alert name.
  std::string name;
  RuleKind kind = RuleKind::kGaugeAbove;
  /// The metric the rule watches (exact registry name, labels included).
  std::string metric;
  /// Fire when the evaluated value exceeds this.
  double threshold = 0;
  /// Consecutive breached ticks before the rule fires.
  int for_ticks = 1;
  /// Consecutive healthy ticks before a firing rule resolves.
  int clear_ticks = 1;
};

enum class AlertState : int { kOk = 0, kFiring };

/// One state transition: fired or resolved.
struct AlertEvent {
  std::string rule;
  /// true = fired, false = resolved.
  bool firing = false;
  /// The evaluated value at the transition tick.
  double value = 0;
  double threshold = 0;
  /// Evaluation tick index (1-based) the transition happened on.
  int64_t tick = 0;
};

/// A rule plus its live evaluation state.
struct RuleStatus {
  HealthRule rule;
  AlertState state = AlertState::kOk;
  /// Value from the most recent evaluation.
  double last_value = 0;
  int breached_ticks = 0;
  int healthy_ticks = 0;
  int64_t times_fired = 0;
};

/// One retained observation of one metric.
struct SamplePoint {
  /// The tick (1-based, as in AlertEvent::tick) that took the point.
  int64_t tick = 0;
  /// Seconds since the monitor was constructed (monotonic clock).
  double t_seconds = 0;
  /// Counter/gauge value; for histograms, the recorded-value count.
  int64_t value = 0;
  /// Histograms only: sum of recorded values at this point.
  int64_t sum = 0;
};

/// The retained window of one metric, oldest point first.
struct SeriesWindow {
  std::deque<SamplePoint> points;

  /// Average increase of `value` per second between the oldest and newest
  /// retained points (0 when fewer than two points or no time passed).
  /// For counters this is the rate (requests/sec, rows/sec); for gauges it
  /// is the drift, rarely meaningful.
  double RatePerSec() const;
};

/// Transition events a HealthMonitor retains (ring, oldest evicted).
inline constexpr size_t kMaxAlertEvents = 128;

/// Out-of-range values are clamped once, at construction: interval_ms and
/// ring_capacity to their minimums (1 and 2).
struct HealthMonitorOptions {
  /// Background tick period (thread started explicitly by Start()).
  int interval_ms = 1000;
  /// Ticks retained per series; at the default interval, one minute.
  int ring_capacity = 60;
};

class HealthMonitor {
 public:
  /// `registry` is borrowed and must outlive the monitor.
  explicit HealthMonitor(const MetricsRegistry* registry,
                         HealthMonitorOptions options = {});
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void AddRule(HealthRule rule);

  /// One tick, on the calling thread: snapshot, append to the rings, delta
  /// against the previous tick, judge every rule, log transitions. Safe
  /// concurrently with the background thread (ticks are serialized).
  void EvaluateOnce();

  /// Starts/stops the background tick thread (both idempotent; the
  /// destructor stops).
  void Start();
  void Stop();
  bool running() const;

  std::vector<RuleStatus> Rules() const;
  /// Transition log, oldest first.
  std::vector<AlertEvent> Events() const;
  /// Rules currently in kFiring (as of the last tick).
  int FiringCount() const {
    return static_cast<int>(alerts_firing_.Value());
  }
  bool IsFiring(const std::string& rule_name) const;
  /// Total ticks taken (background + manual).
  int64_t evaluations() const { return evaluations_.Value(); }

  /// The retained ring of `name` (empty window when never sampled).
  SeriesWindow GetSeries(const std::string& name) const;
  /// GetSeries(name).RatePerSec(), without copying the window.
  double RatePerSec(const std::string& name) const;
  /// Number of metrics with a retained ring.
  size_t series_count() const;

 private:
  const MetricsRegistry* registry_;
  const HealthMonitorOptions options_;
  const std::chrono::steady_clock::time_point start_;

  Counter evaluations_;
  Gauge alerts_firing_;

  // Held for a whole tick, so snapshot, timestamp, ring append and judging
  // are one step in time order. Lock order: tick_mu_ before mu_.
  Mutex tick_mu_;
  RegistrySnapshot prev_ GUARDED_BY(tick_mu_);

  // What readers see; never held across a registry snapshot.
  mutable Mutex mu_;
  std::vector<RuleStatus> rules_ GUARDED_BY(mu_);
  std::deque<AlertEvent> events_ GUARDED_BY(mu_);
  std::map<std::string, SeriesWindow> series_ GUARDED_BY(mu_);

  mutable Mutex thread_mu_;
  CondVar cv_;
  bool stop_ GUARDED_BY(thread_mu_) = false;
  bool running_ GUARDED_BY(thread_mu_) = false;
  std::thread thread_ GUARDED_BY(thread_mu_);
};

}  // namespace balsa::obs
