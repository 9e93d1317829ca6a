// OptimizerServer: the optimizer as a long-lived service rather than an
// experiment loop. Concurrent clients call Optimize(sql | Query); each
// request is canonicalized into a structural fingerprint
// (src/serving/query_fingerprint.h) and served from the sharded LRU plan
// cache keyed by (fingerprint, stats_version) — repeat traffic returns in
// microseconds without re-running beam search. Cached plans live in
// canonical relation space and are translated to each requester's FROM
// numbering on the way out, so alias-renamed or FROM-reordered requests
// receive correctly wired plans. A cache miss plans on the requesting
// thread: it takes a slot of the server's admission gate (at most
// num_planning_threads beam searches run at once; later misses wait for a
// slot), runs the beam search, and scores every frontier on that same
// thread through the shared InferenceService. No miss crosses a thread.
//
// In-flight coalescing: misses for the *same* (fingerprint, stats_version)
// collapse into one planning call — the first requester plans, the rest
// block until its result lands, so a thundering herd of an uncached hot
// query costs exactly one beam search. Combined with the deterministic
// planner (epsilon is forced to 0), this gives the serving invariant the
// bench asserts: for a fixed stats_version, every client always receives a
// plan bitwise identical to a fresh single-threaded TopK, at any
// concurrency.
//
// Staleness: the stats_version comes from the CardOracle generation counter
// (bumped on re-ANALYZE). A bump makes every cached entry unreachable
// (lookups require an exact version match), so stale plans are never
// served; the entries themselves are evicted lazily by the cache.
//
// Observability: request latency is recorded into per-outcome
// (hit/miss/coalesced) obs::Log2Histograms, and a sampling
// obs::RequestTracer threads a TraceContext through the request — the
// fingerprint, cache-lookup, coalesce-wait, queue-wait, beam-search,
// inference, and admit stages each record a span (per-stage histograms feed
// the benches' breakdown tables; the request's trace holds the span list
// and is handed back in OptimizeResult::trace). Pass
// OptimizerServerOptions::metrics to export everything — server counters,
// outcome histograms, stage histograms, plan-cache counters, inference
// counters, the admission gate's waiters and wait — through one
// MetricsRegistry, under the "serving." prefix (the cache under
// "serving.plan_cache.", the gate and inference service under "runtime.").
//
// Flight recorder: the server's obs::TraceStore is the only place a
// request is retained. With OptimizerServerOptions::flight_recorder
// enabled, *every* request reports its completion to it, and the store
// keeps the top-K slowest, all error/row-capped outcomes, and a uniform
// reservoir of normals (src/obs/flight_recorder.h). Each request carries
// at most one trace: the head-sampled one when the tracer picked it,
// otherwise a lazy store shell armed the moment the request leaves the pure
// hit path (miss or coalesce) — so retained tail traces carry the
// queue-wait/beam-search/inference/admit span story while the microsecond
// hit path stays allocation- and clock-free. Retained completions tag
// their latency-histogram bucket with the trace id (exemplars), so a p99
// bucket in statusz links to a full retained trace. RecordExecution
// promotes a row-capped execution into the store: the paper's "disastrous
// plan" signal is retained by construction.
//
// The network pointer is borrowed and must not be trained while requests
// are in flight (serve and train are distinct phases, as in the agent).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/balsa/planner.h"
#include "src/exec/profile.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/inference_service.h"
#include "src/serving/plan_cache.h"
#include "src/stats/card_oracle.h"
#include "src/util/admission_gate.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace balsa {

struct OptimizerServerOptions {
  /// Beam-search configuration for misses. epsilon_collapse is forced to 0:
  /// a server must hand every client the same plan for the same query.
  PlannerOptions planner;
  PlanCacheOptions cache;
  /// The scoring shell's options (num_workers must stay 0).
  InferenceServiceOptions inference;
  /// Concurrent beam searches (0 = hardware concurrency): the admission
  /// gate's slot count. Misses plan on their own threads; a miss that finds
  /// every slot taken waits for one. Rewarm fans out over a pool this size.
  int num_planning_threads = 0;
  /// Collapse concurrent misses on the same (fingerprint, stats_version)
  /// into one planning call. Off only for baselines that deliberately plan
  /// every request from scratch.
  bool coalesce_misses = true;
  /// Request-trace sampling (sample_every = 0 disables tracing).
  obs::RequestTracerOptions trace;
  /// Tail-based trace retention (enabled = false keeps the recorder off).
  /// When enabled every request reports its completion (with its trace, if
  /// it has one) and the TraceStore decides at completion what to retain.
  obs::TraceStoreOptions flight_recorder;
  /// When set, every serving instrument — counters, latency histograms,
  /// trace stage histograms, plan-cache and inference-service stats, the
  /// admission gate's waiters and wait — is attached to it, and the
  /// admission-wait clock is armed. Borrowed; must outlive the
  /// server. nullptr = instruments still work (they ARE the server's
  /// stats), they just aren't exported anywhere.
  obs::MetricsRegistry* metrics = nullptr;
};

class OptimizerServer {
 public:
  /// `oracle` supplies the statistics generation (stats_version); pass
  /// nullptr to pin the version to 0 (no invalidation source). All pointers
  /// are borrowed and must outlive the server.
  OptimizerServer(const Schema* schema, const Featurizer* featurizer,
                  const ValueNetwork* network, const CardOracle* oracle,
                  OptimizerServerOptions options = {});

  OptimizerServer(const OptimizerServer&) = delete;
  OptimizerServer& operator=(const OptimizerServer&) = delete;

  struct OptimizeResult {
    Plan plan;
    double predicted_ms = 0;
    /// Statistics generation the plan was produced under.
    int64_t stats_version = 0;
    /// Storage publication epoch pinned at request entry. Serving reads no
    /// table data directly — planning runs over statistics snapshots and
    /// any true-cardinality probe pins its own storage snapshot — so this
    /// records which data regime the request was served under while
    /// change-stream writers ingest concurrently.
    uint64_t data_epoch = 0;
    bool cache_hit = false;
    /// Served by waiting on another request's in-flight planning call.
    bool coalesced = false;
    double serve_micros = 0;
    /// The request's canonical structural fingerprint (the cache key and
    /// the retained trace's correlation id).
    uint64_t fingerprint = 0;
    /// The request's trace: the head-sampled one when the tracer picked the
    /// request, otherwise the flight recorder's shell. Shells are lazy:
    /// non-null when the request planned (miss/coalesced) or was retained
    /// at completion — a plain unretained hit carries none, because
    /// allocating one would cost more than the hit itself. nullptr when
    /// neither sampling nor the recorder produced one. Callers that execute
    /// the plan re-install it with ScopedTraceContext so exec spans land in
    /// the same trace, and RecordExecution uses it to promote row-capped
    /// requests into the retained set.
    std::shared_ptr<obs::Trace> trace;
  };

  /// Plans `query` (or serves it from the cache). Thread-safe.
  StatusOr<OptimizeResult> Optimize(const Query& query);

  /// Parses an SPJ statement and serves it like Optimize. Two SQL strings
  /// that differ only in alias names or FROM order share a cache slot.
  StatusOr<OptimizeResult> OptimizeSql(const std::string& sql);

  struct Stats {
    int64_t requests = 0;
    int64_t hits = 0;
    int64_t misses = 0;     // requests that found no cached plan
    int64_t coalesced = 0;  // misses served by joining an in-flight plan
    int64_t planned = 0;    // beam searches actually run
    int64_t rewarmed = 0;   // plans refreshed by Rewarm(), not by requests
  };
  Stats stats() const;

  /// Proactively replans the `top_k` hottest cached fingerprints (by hit
  /// count) that are stale relative to the current stats_version, and
  /// re-admits them at the new version — the post-bump re-warm pass, called
  /// by the adaptive ReanalyzeScheduler right after it bumps the
  /// generation so hot traffic does not eat a miss storm. Replans fan out
  /// over the server's pool and take admission-gate slots like client
  /// misses, so beam searches in flight stay <= num_planning_threads.
  /// Thread-safe; concurrent client misses for the same
  /// fingerprint at worst duplicate one beam search, they never see a stale
  /// or torn entry.
  struct RewarmReport {
    int candidates = 0;  // hottest entries examined
    int replanned = 0;   // successfully refreshed at the current version
    int fresh = 0;       // already at the current version, skipped
    int failed = 0;      // replanning errors (entry left to lazy eviction)
  };
  RewarmReport Rewarm(int top_k);

  /// Current statistics generation requests are served under.
  int64_t stats_version() const {
    return oracle_ == nullptr ? 0 : oracle_->generation();
  }

  /// Current storage publication epoch (0 without an oracle).
  uint64_t data_epoch() const {
    return oracle_ == nullptr ? 0 : oracle_->data_epoch();
  }

  /// How a request was served; indexes the per-outcome latency histograms.
  enum class Outcome { kHit = 0, kMiss, kCoalesced };

  /// Feeds back an executed plan's measured profile: when the execution
  /// hit the executor's row cap, the request's trace is promoted into the
  /// flight recorder as a capped entry carrying the plan summary, root
  /// output rows, and execution time (the "disastrous plan" the learning
  /// loop retrains on). If the caller re-installed result.trace around the
  /// execution (see examples/metrics_dump), its spans — serve stages plus
  /// exec_scan/exec_join — are already in the retained trace. No-op when
  /// the recorder is off.
  void RecordExecution(const Query& query, const OptimizeResult& result,
                       const ExecutionProfile& profile);

  const PlanCache& cache() const { return cache_; }
  /// Request latency (µs) of every request served with `outcome`.
  const obs::Log2Histogram& latency(Outcome outcome) const {
    return request_us_[static_cast<size_t>(outcome)];
  }
  obs::RequestTracer* tracer() { return &tracer_; }
  const obs::RequestTracer& tracer() const { return tracer_; }
  const obs::TraceStore& flight_recorder() const { return flight_store_; }
  obs::TraceStore* flight_recorder() { return &flight_store_; }
  /// Wait (µs) for an admission-gate slot of every beam search, 0 when a
  /// slot was free; recorded only when metrics are attached or the flight
  /// recorder is on ("armed"), so an un-instrumented server takes no clock
  /// reads for it.
  const obs::Log2Histogram& pool_wait_histogram() const {
    return pool_wait_us_;
  }
  const InferenceService* inference() const { return inference_.get(); }
  int num_planning_threads() const { return gate_.slots(); }

 private:
  struct InFlight {
    /// All three fields are guarded by the owning server's mu_ (not
    /// annotatable from a nested struct: the capability expression cannot
    /// name the outer instance). Waiters read result/status only after
    /// observing done == true under mu_.
    bool done = false;
    Status status = Status::OK();
    /// The planned entry in *canonical* relation space (like the cache):
    /// every waiter translates it to its own query's numbering.
    std::shared_ptr<const CachedPlan> result;
  };

  /// Runs one beam search on the calling thread, holding an admission-gate
  /// slot for its duration, and returns its best plan. The wait for the
  /// slot is the request's queue wait: a kQueueWait span on a traced thread,
  /// and a pool_wait_us_ record when armed.
  StatusOr<CachedPlan> PlanMiss(const Query& query, int64_t version);
  /// Plans `query`, admits the canonical-space entry to the cache, and
  /// returns it (shared by the leader's response and any waiters).
  StatusOr<std::shared_ptr<const CachedPlan>> PlanAndAdmit(
      const Query& query, uint64_t fingerprint,
      const std::vector<int>& canonical_rank, int64_t version);
  /// Plans `query` without touching the cache — the fallback when a
  /// canonical plan cannot be remapped onto this query's numbering.
  StatusOr<OptimizeResult> PlanUncached(const Query& query,
                                        uint64_t fingerprint, int64_t version,
                                        bool coalesced);
  /// `trace` (never null) holds the request's trace. When it is null (the
  /// request was not head-sampled) and the recorder is on, Serve arms a
  /// flight-recorder shell the moment the request leaves the pure hit path;
  /// hits leave it null.
  StatusOr<OptimizeResult> Serve(const Query& query,
                                 std::shared_ptr<obs::Trace>* trace);

  const Schema* schema_;
  const CardOracle* oracle_;
  OptimizerServerOptions options_;

  /// Admission-gate wait, recorded only when wait_armed_.
  obs::Log2Histogram pool_wait_us_;
  /// Metrics attached or flight recorder on: time every gate wait.
  bool wait_armed_ = false;

  std::unique_ptr<InferenceService> inference_;
  /// Rewarm's fan-out (options.num_planning_threads threads).
  ThreadPool pool_;
  /// Bounds concurrent beam searches at pool_.num_threads().
  AdmissionGate gate_;
  BeamSearchPlanner planner_;
  PlanCache cache_;

  Mutex mu_;     // guards in_flight_
  CondVar cv_;   // waiters for in-flight planning calls
  /// Key mixes fingerprint and stats_version: a bump mid-flight must not
  /// let a new request join a plan computed under the old statistics.
  std::unordered_map<uint64_t, std::shared_ptr<InFlight>> in_flight_
      GUARDED_BY(mu_);

  obs::Counter requests_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter coalesced_;
  obs::Counter planned_;
  obs::Counter rewarmed_;
  /// Request latency by outcome, indexed by Outcome. The merge of the
  /// three is the overall latency distribution (HistogramData::Merge).
  std::array<obs::Log2Histogram, 3> request_us_;
  obs::RequestTracer tracer_;
  obs::TraceStore flight_store_;
  /// Registry attachments (empty when options.metrics == nullptr). Last
  /// member: detaches before any instrument dies.
  std::vector<obs::Registration> registrations_;
};

}  // namespace balsa
