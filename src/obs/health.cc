#include "src/obs/health.h"

#include <algorithm>
#include <chrono>

namespace balsa::obs {

namespace {

/// Bucket-wise difference cur - prev; the histogram of values recorded
/// between the two snapshots. Ticks are serialized, so `prev` is always
/// the older snapshot: buckets only grow and deltas are >= 0.
HistogramData DeltaHistogram(const HistogramData& cur,
                             const HistogramData& prev) {
  HistogramData delta;
  for (int i = 0; i < HistogramData::kBuckets; ++i) {
    const auto b = static_cast<size_t>(i);
    delta.buckets[b] = cur.buckets[b] - prev.buckets[b];
    delta.count += delta.buckets[b];
  }
  delta.sum = cur.sum - prev.sum;
  return delta;
}

HealthMonitorOptions Clamped(HealthMonitorOptions options) {
  options.interval_ms = std::max(1, options.interval_ms);
  options.ring_capacity = std::max(2, options.ring_capacity);
  return options;
}

/// The rule's value this tick, given the previous and current snapshots.
double Evaluate(const HealthRule& rule, const RegistrySnapshot& prev,
                const RegistrySnapshot& cur) {
  const MetricValue* now = cur.Find(rule.metric);
  if (now == nullptr) return 0;
  const MetricValue* before = prev.Find(rule.metric);
  switch (rule.kind) {
    case RuleKind::kWindowP99Above: {
      const HistogramData delta =
          before != nullptr ? DeltaHistogram(now->histogram, before->histogram)
                            : HistogramData{};
      return delta.Percentile(99);
    }
    case RuleKind::kWindowRateAbove:
      return before != nullptr
                 ? static_cast<double>(now->value - before->value)
                 : 0;
    case RuleKind::kGaugeAbove:
      return static_cast<double>(now->value);
  }
  return 0;
}

}  // namespace

double SeriesWindow::RatePerSec() const {
  if (points.size() < 2) return 0;
  const double dt = points.back().t_seconds - points.front().t_seconds;
  if (dt <= 0) return 0;
  return static_cast<double>(points.back().value - points.front().value) / dt;
}

const char* RuleKindName(RuleKind kind) {
  switch (kind) {
    case RuleKind::kWindowP99Above: return "window_p99_above";
    case RuleKind::kWindowRateAbove: return "window_rate_above";
    case RuleKind::kGaugeAbove: return "gauge_above";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(const MetricsRegistry* registry,
                             HealthMonitorOptions options)
    : registry_(registry),
      options_(Clamped(options)),
      start_(std::chrono::steady_clock::now()) {}

HealthMonitor::~HealthMonitor() { Stop(); }

void HealthMonitor::AddRule(HealthRule rule) {
  if (rule.for_ticks < 1) rule.for_ticks = 1;
  if (rule.clear_ticks < 1) rule.clear_ticks = 1;
  MutexLock lock(mu_);
  RuleStatus status;
  status.rule = std::move(rule);
  rules_.push_back(std::move(status));
}

void HealthMonitor::EvaluateOnce() {
  MutexLock tick_lock(tick_mu_);
  RegistrySnapshot cur = registry_->Snapshot();
  const double t = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  const int64_t tick = evaluations_.Inc();

  MutexLock lock(mu_);
  const auto capacity = static_cast<size_t>(options_.ring_capacity);
  for (const MetricValue& m : cur.metrics) {
    SeriesWindow& window = series_[m.name];
    SamplePoint point;
    point.tick = tick;
    point.t_seconds = t;
    if (m.kind == MetricKind::kHistogram) {
      point.value = m.histogram.count;
      point.sum = m.histogram.sum;
    } else {
      point.value = m.value;
    }
    window.points.push_back(point);
    while (window.points.size() > capacity) window.points.pop_front();
  }

  // A metric absent from the previous snapshot (every metric, on the first
  // tick) reads 0 in delta rules: the first tick establishes the baseline
  // instead of judging all-time cumulatives.
  int firing = 0;
  for (RuleStatus& slot : rules_) {
    slot.last_value = Evaluate(slot.rule, prev_, cur);
    const bool breached = slot.last_value > slot.rule.threshold;
    if (breached) {
      slot.breached_ticks += 1;
      slot.healthy_ticks = 0;
    } else {
      slot.healthy_ticks += 1;
      slot.breached_ticks = 0;
    }
    if (slot.state == AlertState::kOk && breached &&
        slot.breached_ticks >= slot.rule.for_ticks) {
      slot.state = AlertState::kFiring;
      slot.times_fired += 1;
      events_.push_back({slot.rule.name, true, slot.last_value,
                         slot.rule.threshold, tick});
    } else if (slot.state == AlertState::kFiring && !breached &&
               slot.healthy_ticks >= slot.rule.clear_ticks) {
      slot.state = AlertState::kOk;
      events_.push_back({slot.rule.name, false, slot.last_value,
                         slot.rule.threshold, tick});
    }
    if (slot.state == AlertState::kFiring) firing += 1;
  }
  while (events_.size() > kMaxAlertEvents) {
    events_.pop_front();
  }
  alerts_firing_.Set(firing);
  prev_ = std::move(cur);
}

void HealthMonitor::Start() {
  MutexLock lock(thread_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] {
    MutexLock lock(thread_mu_);
    while (!stop_) {
      // Tick outside the thread mutex: Stop() must never wait on a registry
      // snapshot in flight longer than one tick.
      lock.Unlock();
      EvaluateOnce();
      lock.Lock();
      // One tick per lap, cut short only by Stop(): spurious wakeups
      // re-wait against the same deadline.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(options_.interval_ms);
      while (!stop_ && cv_.WaitUntil(thread_mu_, deadline) !=
                           std::cv_status::timeout) {
      }
    }
  });
}

void HealthMonitor::Stop() {
  std::thread to_join;
  {
    MutexLock lock(thread_mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
    to_join = std::move(thread_);
  }
  cv_.NotifyAll();
  to_join.join();
}

bool HealthMonitor::running() const {
  MutexLock lock(thread_mu_);
  return running_;
}

std::vector<RuleStatus> HealthMonitor::Rules() const {
  MutexLock lock(mu_);
  return rules_;
}

std::vector<AlertEvent> HealthMonitor::Events() const {
  MutexLock lock(mu_);
  return {events_.begin(), events_.end()};
}

bool HealthMonitor::IsFiring(const std::string& rule_name) const {
  MutexLock lock(mu_);
  for (const RuleStatus& slot : rules_) {
    if (slot.rule.name == rule_name) {
      return slot.state == AlertState::kFiring;
    }
  }
  return false;
}

SeriesWindow HealthMonitor::GetSeries(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? SeriesWindow{} : it->second;
}

double HealthMonitor::RatePerSec(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? 0 : it->second.RatePerSec();
}

size_t HealthMonitor::series_count() const {
  MutexLock lock(mu_);
  return series_.size();
}

}  // namespace balsa::obs
