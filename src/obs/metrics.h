// The process-wide metrics layer (layer 12 in the architecture docs,
// physically at the bottom of the DAG: it depends only on util so every
// subsystem above can be instrumented).
//
// Primitives are cheap and TSan-clean:
//   - Counter: monotone relaxed-atomic add. An Inc is one fetch_add.
//   - Gauge:   settable relaxed-atomic value (plus a CAS-max helper for
//     high-water marks).
//   - Log2Histogram: lock-free log2-bucketed value recorder — the
//     generalization of the serving layer's old LatencyHistogram. Values
//     are bucketed by their bit width, so percentiles are upper bounds
//     within ~2x: enough to tell a microsecond cache hit from a millisecond
//     beam search. Histograms are mergeable (bucket-wise addition), which
//     is what lets the registry aggregate per-shard or per-instance
//     histograms attached under one name.
//
// The MetricsRegistry is a naming/export hub, not an owner: components own
// their instruments (they are the components' own stats — there is exactly
// one telemetry path) and *attach* them under hierarchical names
// ("serving.plan_cache.hits"). Attachment returns a RAII Registration that
// detaches on destruction, so a component's instruments never dangle in the
// registry. Label support is by name suffix: Labeled("serving.request_us",
// {{"outcome", "hit"}}) -> "serving.request_us{outcome=hit}". Attaching
// several instruments under the *same* name is deliberate and useful:
// Snapshot() merges duplicates (counters/gauges sum, histograms merge), so
// eight plan-cache shards attach their hit counters under one name and the
// snapshot reports the total.
//
// Snapshot consistency: a snapshot is NOT an atomic cut — each instrument
// is read independently while traffic runs. What *is* guaranteed, and
// tested (tests/obs_test.cc), is monotonicity: every counter value in a
// later snapshot is >= its value in an earlier one, because each read is a
// single atomic load of a value that only grows. Sums of per-shard counters
// inherit the property: the later snapshot reads every shard at a later
// time.
//
// Kill switch: SetEnabled(false) turns every *recording* site — histogram
// Record, trace sampling — into a relaxed load plus a branch, the runtime
// equivalent of compiling the instrumentation out (bench_obs_overhead gates
// instrumented throughput >= 0.97x of this baseline). Counters stay live:
// they are the components' own stats (hit rates, coalescing counts) and
// predate the registry; disabling them would change component semantics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/thread_annotations.h"

namespace balsa::obs {

/// Global recording kill switch (default on). See the file comment.
void SetEnabled(bool enabled);
bool Enabled();

/// How many cache-line-aligned stripes the striped instruments fan writers
/// across (Log2Histogram buckets, RequestTracer arrival counters).
constexpr int kThreadStripes = 8;

/// This thread's stripe index in [0, kThreadStripes): round-robin assigned
/// on first use, so up to kThreadStripes concurrent recorders write
/// entirely private cache lines.
size_t ThreadStripe();

/// Monotone counter. Inc is a relaxed fetch_add; Value a relaxed load.
class Counter {
 public:
  /// Returns the value this increment produced — unique per call, so it can
  /// number concurrent events without a separate read.
  int64_t Inc(int64_t n = 1) {
    return value_.fetch_add(n, std::memory_order_relaxed) + n;
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Settable instantaneous value; UpdateMax keeps a high-water mark.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A read-out of one Log2Histogram; also the merge format.
struct HistogramData {
  static constexpr int kBuckets = 40;  // bucket i covers [2^(i-1), 2^i)
  std::array<int64_t, kBuckets> buckets{};
  int64_t count = 0;
  int64_t sum = 0;
  /// Per-bucket exemplar trace ids (0 = none): the id passed with the most
  /// recent Record(value, id) call that landed in the bucket. Links a
  /// latency bucket — "something took 2-4ms" — straight to a retained
  /// flight-recorder trace saying *what* did. Ids may dangle once the
  /// trace store evicts the trace; resolvers must tolerate a miss.
  std::array<uint64_t, kBuckets> exemplars{};

  void Merge(const HistogramData& other);
  /// Upper bound of the p-th percentile (p in [0, 100]); 0 when empty.
  double Percentile(double p) const;
  /// Index of the bucket the p-th percentile falls in (-1 when empty).
  int PercentileBucket(double p) const;
  /// The exemplar tag on the p-th percentile's bucket, falling back to the
  /// nearest lower tagged bucket (0 when none): striped recording can
  /// leave the exact percentile bucket untagged while a neighbor holds an
  /// equally representative trace id.
  uint64_t PercentileExemplar(double p) const;
  double Mean() const {
    return count == 0 ? 0 : static_cast<double>(sum) / count;
  }
  /// Compares the recorded-value mass only; exemplar tags are metadata
  /// (which id happened to land last) and deliberately excluded.
  bool operator==(const HistogramData& other) const {
    return buckets == other.buckets && count == other.count &&
           sum == other.sum;
  }
};

/// Lock-free log2-bucketed recorder of non-negative values (units are the
/// caller's: microseconds, batch items, score-milli-units, ...). Recording
/// is two relaxed fetch_adds plus a clz, into a cache-line-aligned stripe
/// picked by the recording thread — concurrent recorders (16 serving
/// clients hammering one latency histogram) don't bounce a shared line.
/// Reads merge the stripes bucket-wise; the count is the bucket mass, so
/// reads are exact, just O(stripes x buckets) instead of O(1) — fine for a
/// read path that runs at snapshot frequency. Obeys the global kill switch.
class Log2Histogram {
 public:
  static constexpr int kBuckets = HistogramData::kBuckets;
  static constexpr int kStripes = kThreadStripes;

  void Record(double value) { Record(value, 0); }
  /// Records `value` and, when `exemplar_id` is non-zero, tags the value's
  /// bucket with it (one extra relaxed store into the caller's stripe).
  /// The id is typically a trace id; see HistogramData::exemplars.
  void Record(double value, uint64_t exemplar_id);
  int64_t Count() const;
  /// Upper bound of the p-th percentile over everything recorded so far.
  double Percentile(double p) const { return Snapshot().Percentile(p); }
  HistogramData Snapshot() const;

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<int64_t>, kBuckets> buckets{};
    std::atomic<int64_t> sum{0};
    std::array<std::atomic<uint64_t>, kBuckets> exemplars{};
  };
  std::array<Stripe, kStripes> stripes_;
};

/// "name{k=v,k2=v2}" — the naming convention for labeled instruments.
std::string Labeled(
    const std::string& name,
    std::initializer_list<std::pair<const char*, const char*>> labels);

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One named value in a registry snapshot (duplicates already merged).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;       // counters and gauges
  HistogramData histogram; // kHistogram only
};

/// A point-in-time read of every attached instrument, sorted by name.
/// Not an atomic cut; counter values are monotone across snapshots.
struct RegistrySnapshot {
  std::vector<MetricValue> metrics;
  /// The entry named `name`, or nullptr.
  const MetricValue* Find(const std::string& name) const;
};

class MetricsRegistry;

/// RAII attachment handle: detaches the instrument on destruction (or on
/// move-assignment over it). The registry must outlive the handle.
class Registration {
 public:
  Registration() = default;
  Registration(Registration&& other) noexcept { *this = std::move(other); }
  Registration& operator=(Registration&& other) noexcept;
  ~Registration() { Reset(); }

  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;

  void Reset();

 private:
  friend class MetricsRegistry;
  Registration(MetricsRegistry* registry, int64_t id)
      : registry_(registry), id_(id) {}

  MetricsRegistry* registry_ = nullptr;
  int64_t id_ = 0;
};

/// Naming/export hub over component-owned instruments. Attach/detach take a
/// mutex; recording into an attached instrument never touches the registry.
/// Instruments must outlive their Registration; the registry must outlive
/// every component attached to it (attach to Default() or keep the registry
/// at the top of the stack).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Registration AttachCounter(std::string name,
                                           const Counter* counter);
  [[nodiscard]] Registration AttachGauge(std::string name, const Gauge* gauge);
  [[nodiscard]] Registration AttachHistogram(std::string name,
                                             const Log2Histogram* histogram);
  /// A gauge whose value is computed at snapshot time — for state that is
  /// cheap to read but wasteful to push on every mutation (queue depth,
  /// cache occupancy, retained bytes). `fn` runs under no registry lock
  /// ordering guarantees; it must be safe to call from any thread.
  [[nodiscard]] Registration AttachCallbackGauge(std::string name,
                                                 std::function<int64_t()> fn);

  /// Reads every attached instrument, merging duplicates by (name, kind):
  /// counters and gauges sum, histograms merge bucket-wise.
  RegistrySnapshot Snapshot() const;

  /// Attached instrument count (before duplicate merging).
  size_t NumAttached() const;

  /// The process-wide default registry (what benches export with
  /// --metrics-json and what examples/metrics_dump prints).
  static MetricsRegistry& Default();

 private:
  friend class Registration;

  struct Entry {
    int64_t id = 0;
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Log2Histogram* histogram = nullptr;
    std::function<int64_t()> callback;
  };

  Registration Attach(Entry entry) EXCLUDES(mu_);
  void Detach(int64_t id) EXCLUDES(mu_);

  mutable Mutex mu_;
  int64_t next_id_ GUARDED_BY(mu_) = 1;
  std::vector<Entry> entries_ GUARDED_BY(mu_);
};

}  // namespace balsa::obs
