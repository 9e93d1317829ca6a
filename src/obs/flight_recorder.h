// Flight recorder: tail-based trace retention. Head sampling (the
// RequestTracer's 1-in-N) keeps a *random* subset of traces, so the exact
// request that blew the p99 is almost never among them. The flight
// recorder inverts the decision: every request reports its completion, and
// *at completion* — when the latency and outcome are known — the TraceStore
// decides what to keep:
//
//   - top-K by latency: the K slowest requests ever completed are retained
//     by construction, so "what did the worst request do?" always has an
//     answer — the tail is kept, not sampled;
//   - every error and row-capped outcome (a bounded ring of the paper's
//     "disastrous plan" signals);
//   - a uniform reservoir of normal completions, the baseline to compare
//     the tail against.
//
// The per-completion fast path is designed for the serving hot loop: one
// relaxed counter bump, one load of the cached top-K floor, and for
// ordinary sub-floor completions a deterministic reservoir coin flip
// (SplitMix64 of the completion index) — the store mutex is only taken by
// completions that are actually admitted. Trace shells are *lazy*: a
// cache hit (the microsecond-scale path that dominates serving traffic)
// allocates nothing and reads no extra clocks — OnComplete accepts a null
// trace and materializes a span-less shell only if the completion is
// retained. The miss/coalesced path — where tail latency actually comes
// from — creates its shell up front, so retained tail traces carry the
// full queue-wait/beam-search/inference/admit span story.
// bench_flight_recorder gates the armed server at >= 0.97x an unarmed one.
//
// Retained traces export as JSONL (one self-contained object per line,
// spans included); scripts/trace_to_chrome.py converts that to a Chrome
// tracing / Perfetto timeline. Histogram exemplars (Log2Histogram) store
// trace ids of *retained* traces, so a p99 bucket in any dump links here.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace balsa::obs {

struct TraceStoreOptions {
  /// Master switch. An OptimizerServer with the recorder disabled falls
  /// back to head-sampled tracing (RequestTracerOptions::sample_every).
  bool enabled = false;
  /// Slowest-ever completions retained (min-heap by latency).
  int top_k = 16;
};

/// Why a completion was retained.
enum class RetainReason : int { kTopK = 0, kOutcome, kReservoir };
const char* RetainReasonName(RetainReason reason);

/// What the server tells the store when a request finishes.
struct TraceCompletion {
  double latency_us = 0;
  /// "hit" / "miss" / "coalesced" / "error" — a string literal, so a
  /// completion costs no allocation for it.
  const char* outcome = "";
  uint64_t fingerprint = 0;
  std::string query_name;
  bool error = false;
  bool capped = false;
  /// The statistics generation and storage epoch the request was served
  /// under.
  int64_t stats_version = 0;
  uint64_t data_epoch = 0;
  /// Row-cap fields, known only once the plan has executed (PromoteCapped):
  /// the plan as a one-line rendering, its root output cardinality, and its
  /// wall time.
  std::string plan_summary;
  int64_t rows_out = 0;
  double exec_micros = 0;
};

/// One retained completion: the completion metadata the retention decision
/// was made on, plus the trace and why it was kept.
struct RetainedTrace : TraceCompletion {
  std::shared_ptr<Trace> trace;
  uint64_t trace_id = 0;
  RetainReason reason = RetainReason::kReservoir;
  /// Position in the completion order (1-based; ties the retained set back
  /// to the request stream). 0 for an entry PromoteCapped admitted after
  /// the fact: it never took a position of its own.
  uint64_t completion_index = 0;
};

class TraceStore {
 public:
  /// Uniform reservoir of ordinary (non-tail, non-error) completions.
  static constexpr size_t kReservoirSize = 32;
  /// Error / row-capped completions retained (ring, oldest evicted).
  static constexpr size_t kMaxOutcomes = 64;

  explicit TraceStore(TraceStoreOptions options = {});

  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  bool enabled() const { return options_.enabled; }

  /// A fresh trace shell for one request — the miss path calls this before
  /// it plans, on the request thread, so spans accumulate. Ids come from a
  /// dedicated counter with the top bit set, so they never collide with the
  /// RequestTracer's (arrival, stripe) ids.
  std::shared_ptr<Trace> StartTrace();

  /// The retention decision, made exactly once per request at completion.
  /// Returns the retained trace id, or 0 when the completion was let go
  /// (callers use this to tag histogram exemplars only with resolvable
  /// ids). `trace` may be null — the hit path never allocates a shell —
  /// in which case a span-less shell is materialized iff the completion is
  /// retained. Thread-safe; cheap for the ordinary sub-floor completion
  /// (no lock taken).
  uint64_t OnComplete(const std::shared_ptr<Trace>& trace,
                      const TraceCompletion& completion);

  /// Late promotion: an executed plan turned out row-capped (the signal
  /// arrives after OnComplete, from RecordExecution). Force-retains the
  /// trace in the outcome ring — or, if it is already retained, marks it
  /// capped in place; either way the entry takes the completion's row-cap
  /// fields. `trace` may be null (a hit that was not retained at
  /// completion): a shell is materialized so the capped request is still
  /// in the store. No-op when the store is disabled.
  void PromoteCapped(const std::shared_ptr<Trace>& trace,
                     const TraceCompletion& completion);

  /// Every retained trace (top-K, outcomes, reservoir), unordered.
  std::vector<RetainedTrace> Retained() const;
  /// Copies the retained entry with `trace_id` into `*out`. False when the
  /// id is unknown or has been evicted — histogram exemplars may dangle;
  /// this is the graceful path they resolve through.
  bool FindTrace(uint64_t trace_id, RetainedTrace* out) const;
  /// The highest-latency retained entry (false when nothing is retained).
  bool MaxRetained(RetainedTrace* out) const;

  struct Stats {
    int64_t completions = 0;
    int64_t retained_top_k = 0;    // currently held
    int64_t retained_outcome = 0;  // currently held
    int64_t retained_reservoir = 0;
    int64_t evicted = 0;  // ever displaced from any class
  };
  Stats stats() const;
  int64_t completions() const { return completions_.Value(); }

  /// One JSON object per retained trace (spans inline), sorted by
  /// latency descending — the flight-recorder dump format
  /// scripts/trace_to_chrome.py consumes.
  std::string ToJsonl() const;
  Status WriteJsonlFile(const std::string& path) const;
  static std::string RetainedJson(const RetainedTrace& entry);

  /// Attaches "<prefix>.flight_recorder.{completions,retained,evicted}".
  [[nodiscard]] std::vector<Registration> AttachTo(MetricsRegistry* registry,
                                                   const std::string& prefix);

 private:
  /// Returns the admitted entry's trace id (materializing a shell when
  /// `trace` is null), or 0 when the entry lost the under-lock re-check.
  uint64_t Admit(const std::shared_ptr<Trace>& trace,
                 const TraceCompletion& completion, RetainReason reason,
                 uint64_t index);

  TraceStoreOptions options_;
  /// Intentionally unguarded: relaxed id allocator (StartTrace runs on the
  /// miss path before any store lock is taken).
  std::atomic<uint64_t> next_id_{1};
  Counter completions_;
  Counter retained_;
  Counter evicted_;
  /// Intentionally unguarded: relaxed tally of ordinary completions — the
  /// reservoir coin flip only needs a unique-ish n, not a consistent cut.
  std::atomic<uint64_t> normal_seen_{0};
  /// Latency of the cheapest top-K entry once the heap is full; -1 admits
  /// everything. Cached outside the mutex so sub-floor completions skip it;
  /// written under mu_ but read with a relaxed load as a pre-check that
  /// Admit re-verifies under the lock.
  std::atomic<double> top_k_floor_{-1};

  mutable Mutex mu_;
  /// Min-heap by latency (std::*_heap with a greater-than comparator).
  std::vector<RetainedTrace> top_k_ GUARDED_BY(mu_);
  std::deque<RetainedTrace> outcomes_ GUARDED_BY(mu_);
  std::vector<RetainedTrace> reservoir_ GUARDED_BY(mu_);
};

}  // namespace balsa::obs
