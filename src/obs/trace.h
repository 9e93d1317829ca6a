// Sampling request tracer: explains *where* a slow request spent its time.
//
// A sampled request carries a Trace — an append-only list of timed spans —
// through every stage it touches: fingerprinting, cache lookup, the wait
// for a planning slot, beam search and inference scoring all on the request
// thread (a miss plans where it arrives), executor scans/joins wherever the
// plan runs. Propagation is by an explicit TraceContext installed into a
// thread-local slot (ScopedTraceContext); work handed to another thread
// copies *CurrentTraceContext() and re-installs it in the task body.
//
// Span sites are SpanTimer RAII objects. On a thread with no installed
// context a SpanTimer is completely inert: one thread-local read, no clock
// access — unsampled requests pay nothing per span site. On a traced
// thread each span costs two steady_clock reads and, at destruction, one
// append to the trace (mutex, sampled-only) plus one Log2Histogram record
// into the tracer's per-stage histogram. The per-stage histograms are what
// the benches print as the stage breakdown table; because they are fed by
// sampled requests they are statistically representative, not exhaustive.
//
// Sampling is deterministic per recording thread: arrivals are counted on
// the caller's stripe (obs::ThreadStripe — striped so the counter is not a
// shared contended cache line), and the k-th arrival on a stripe is
// sampled iff (k + seed) % sample_every == 0. On a single thread that is a
// pure function of arrival order and the seed (tests/obs_test.cc pins it);
// across threads each stripe independently samples 1 in sample_every.
// Trace ids encode (arrival k, stripe) as k * kThreadStripes + stripe, so
// ids are globally unique and id / kThreadStripes recovers the arrival
// index. sample_every = 1 traces everything (tests), 0 disables tracing
// entirely; the global obs kill switch also disables it.
//
// The tracer retains nothing: a sampled trace lives as long as its request
// holds it (OptimizeResult::trace). Keeping requests for later inspection
// is the flight recorder's job (src/obs/flight_recorder.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/thread_annotations.h"

namespace balsa::obs {

/// The span taxonomy: every trace site in the stack records one of these.
/// Keep in sync with TraceStageName().
enum class TraceStage : int {
  kFingerprint = 0,  // query canonicalization (serving)
  kCacheLookup,      // plan-cache probe (serving)
  kCoalesceWait,     // blocked on another request's in-flight planning
  kQueueWait,        // wait for a planning slot (admission gate)
  kBeamSearch,       // the full beam search of a miss (serving/balsa)
  kInference,        // one ScoreRoots call: the forward pass
  kAdmit,            // canonicalize + insert the planned entry (serving)
  kExecScan,         // one Executor::Scan over a relation's chunks
  kExecJoin,         // one Executor::Join of two intermediates
  kReanalyze,        // one table's re-ANALYZE (adaptive)
  kCount
};

const char* TraceStageName(TraceStage stage);
constexpr int kNumTraceStages = static_cast<int>(TraceStage::kCount);

struct TraceSpan {
  TraceStage stage = TraceStage::kFingerprint;
  /// Microseconds since the trace started / span duration.
  double start_us = 0;
  double duration_us = 0;
};

/// One sampled request's spans. A served request's spans, a miss's planning
/// included, land on the request thread; OptimizerServer::Rewarm's replan
/// threads are the only other writers, appending under the caller's context
/// in parallel, which is why appends take a mutex. Only sampled requests
/// ever allocate one, so the mutex is off the common path.
class Trace {
 public:
  explicit Trace(uint64_t id);

  uint64_t id() const { return id_; }
  std::chrono::steady_clock::time_point start_time() const { return start_; }

  void AddSpan(TraceStage stage, double start_us, double duration_us);
  std::vector<TraceSpan> spans() const;
  /// Number of distinct stages among the recorded spans.
  int NumDistinctStages() const;
  bool HasStage(TraceStage stage) const;
  /// Total microseconds covered by the union of the span intervals. Spans
  /// nest (inference inside beam_search), so this — not the plain sum of
  /// durations — is the time the trace accounts for; it can never exceed
  /// the request's end-to-end latency by more than clock skew.
  double SpanUnionMicros() const;
  /// "  cache_lookup  +12.3us  4.5us" lines, one per span, in order.
  std::string ToString() const;

 private:
  const uint64_t id_;
  const std::chrono::steady_clock::time_point start_;
  mutable Mutex mu_;
  std::vector<TraceSpan> spans_ GUARDED_BY(mu_);
};

struct RequestTracerOptions {
  /// Sample one request in this many (1 = every request, 0 = never).
  /// Sampling is a pure function of each thread stripe's arrival index.
  int sample_every = 64;
};

/// Owns the sampling decision and the per-stage span-duration histograms.
/// One per OptimizerServer (or per traced component); attach to a registry
/// to export the stage histograms.
class RequestTracer {
 public:
  explicit RequestTracer(RequestTracerOptions options = {});

  /// Returns a fresh Trace for sampled requests, nullptr otherwise (always
  /// nullptr when tracing or the global kill switch is off). Callers install
  /// it with ScopedTraceContext; the trace dies with its last reference.
  std::shared_ptr<Trace> MaybeStartTrace();

  /// Feeds the per-stage histogram (called by SpanTimer; also usable
  /// directly for stages timed by other means). A non-zero `exemplar_id`
  /// tags the value's bucket with the recording trace's id, linking the
  /// bucket to a full trace (see Log2Histogram exemplars).
  void RecordStageMicros(TraceStage stage, double micros,
                         uint64_t exemplar_id = 0);

  const Log2Histogram& stage_histogram(TraceStage stage) const {
    return stage_us_[static_cast<size_t>(stage)];
  }
  int64_t traces_started() const { return traces_started_.Value(); }
  int64_t requests_seen() const;

  /// Attaches the per-stage histograms as "<prefix>.stage_us{stage=...}"
  /// and the sampled-trace counter as "<prefix>.traces".
  [[nodiscard]] std::vector<Registration> AttachTo(MetricsRegistry* registry,
                                                   const std::string& prefix);

  const RequestTracerOptions& options() const { return options_; }

 private:
  RequestTracerOptions options_;
  /// Power-of-two sample_every takes a mask instead of a modulo on the
  /// per-request path (the default 64 qualifies).
  bool sample_pow2_ = false;
  uint64_t sample_mask_ = 0;
  /// Per-stripe arrival counters (see the file comment): counting a request
  /// touches only the caller's own cache line.
  struct alignas(64) ArrivalCounter {
    std::atomic<uint64_t> n{0};
  };
  std::array<ArrivalCounter, kThreadStripes> arrivals_;
  Counter traces_started_;
  std::array<Log2Histogram, kNumTraceStages> stage_us_;
};

/// The value threaded through a request: which tracer feeds the stage
/// histograms, and which trace (if any) collects spans. Copyable across
/// thread boundaries.
struct TraceContext {
  RequestTracer* tracer = nullptr;
  std::shared_ptr<Trace> trace;

  bool active() const { return tracer != nullptr && trace != nullptr; }
};

/// The context installed on the current thread (nullptr when none).
const TraceContext* CurrentTraceContext();

/// Installs `context` on this thread for the scope; restores the previous
/// context on destruction. Installing an inactive context is a cheap no-op
/// (the slot stays clear), so unsampled requests never pay for span sites.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);
  ScopedTraceContext(RequestTracer* tracer, std::shared_ptr<Trace> trace)
      : ScopedTraceContext(TraceContext{tracer, std::move(trace)}) {}
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext context_;
  const TraceContext* previous_ = nullptr;
  bool installed_ = false;
};

/// RAII span: measures from construction to destruction and records into
/// the current thread's trace + its tracer's stage histogram. Inert (no
/// clock reads) when no context is installed.
class SpanTimer {
 public:
  explicit SpanTimer(TraceStage stage)
      : context_(CurrentTraceContext()), stage_(stage) {
    if (context_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~SpanTimer() {
    if (context_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    const double duration_us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    const double start_us =
        std::chrono::duration<double, std::micro>(
            start_ - context_->trace->start_time())
            .count();
    context_->trace->AddSpan(stage_, start_us, duration_us);
    context_->tracer->RecordStageMicros(stage_, duration_us,
                                        context_->trace->id());
  }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  const TraceContext* context_;
  TraceStage stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace balsa::obs
