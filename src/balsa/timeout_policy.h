// Safe execution via timeouts (§4.3). Iteration 0 runs plans to completion;
// thereafter plans are killed after S x T, where T is the smallest maximum
// per-query runtime observed in any completed iteration (timeouts tighten
// monotonically). Timed-out plans receive a fixed large label.
#pragma once

#include <algorithm>

namespace balsa {

class TimeoutPolicy {
 public:
  struct Options {
    bool enabled = true;
  };

  /// Slack factor S over the best known max per-query runtime.
  static constexpr double kSlack = 2.0;
  /// Label assigned to timed-out plans: 4096 seconds, as in the paper.
  static constexpr double kRelabelMs = 4096.0 * 1000.0;

  TimeoutPolicy() = default;
  explicit TimeoutPolicy(Options options) : options_(options) {}

  /// Timeout to apply to this iteration's executions; <= 0 means none
  /// (iteration 0, or the mechanism disabled).
  double CurrentTimeoutMs() const {
    if (!options_.enabled || max_runtime_ms_ <= 0) return -1;
    return kSlack * max_runtime_ms_;
  }

  /// Reports an iteration's maximum per-query runtime (timed-out plans
  /// count as their kill time). Tightens T when the iteration did better.
  void ObserveIteration(double max_per_query_runtime_ms) {
    if (max_per_query_runtime_ms <= 0) return;
    if (max_runtime_ms_ <= 0) {
      max_runtime_ms_ = max_per_query_runtime_ms;
    } else {
      max_runtime_ms_ = std::min(max_runtime_ms_, max_per_query_runtime_ms);
    }
  }

  bool enabled() const { return options_.enabled; }
  double observed_max_runtime_ms() const { return max_runtime_ms_; }

 private:
  Options options_;
  double max_runtime_ms_ = -1;
};

}  // namespace balsa
