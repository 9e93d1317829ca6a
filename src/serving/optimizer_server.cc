#include "src/serving/optimizer_server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "src/serving/query_fingerprint.h"
#include "src/sql/parser.h"
#include "src/util/parallel_for.h"
#include "src/util/thread_pool.h"

namespace balsa {

namespace {

PlannerOptions ServingPlannerOptions(PlannerOptions planner) {
  planner.epsilon_collapse = 0;  // a server never randomizes plans
  return planner;
}

uint64_t InFlightKey(uint64_t fingerprint, int64_t version) {
  return fingerprint ^
         (static_cast<uint64_t>(version) * 0x9E3779B97F4A7C15ULL);
}

const char* OutcomeName(OptimizerServer::Outcome outcome) {
  switch (outcome) {
    case OptimizerServer::Outcome::kHit: return "hit";
    case OptimizerServer::Outcome::kMiss: return "miss";
    case OptimizerServer::Outcome::kCoalesced: return "coalesced";
  }
  return "unknown";
}

/// True iff every join of `plan` crosses a cut connected by some join
/// predicate of `query` — i.e. the plan is executable against this query's
/// relation numbering (Executor::Join requires a crossing predicate).
/// Guards the remap of cached plans: WL color ties are broken by FROM
/// position, which is only guaranteed safe for true automorphisms, so a
/// pathologically symmetric self-join could remap onto non-corresponding
/// relations. Such a plan is rejected and the query planned directly.
bool PlanMatchesQuery(const Query& query, const Plan& plan) {
  for (int i = 0; i < plan.num_nodes(); ++i) {
    const PlanNode& node = plan.node(i);
    if (!node.is_join) continue;
    if (!query.CanJoin(plan.node(node.left).tables,
                       plan.node(node.right).tables)) {
      return false;
    }
  }
  return true;
}

}  // namespace

OptimizerServer::OptimizerServer(const Schema* schema,
                                 const Featurizer* featurizer,
                                 const ValueNetwork* network,
                                 const CardOracle* oracle,
                                 OptimizerServerOptions options)
    : schema_(schema),
      oracle_(oracle),
      options_(options),
      inference_(std::make_unique<InferenceService>(network,
                                                    options.inference)),
      gate_(options.num_planning_threads > 0
                ? options.num_planning_threads
                : ThreadPool::DefaultNumThreads()),
      planner_(schema, featurizer, network,
               ServingPlannerOptions(options.planner)),
      cache_(options.cache),
      tracer_(options.trace),
      flight_store_(options.flight_recorder) {
  planner_.set_inference_service(inference_.get());
  // Time gate waits only when someone will read the histogram; an
  // un-instrumented server never touches the clock for them.
  wait_armed_ = options_.metrics != nullptr || flight_store_.enabled();
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* reg = options_.metrics;
    cache_.AttachMetrics(reg);
    inference_->AttachMetrics(reg);
    const std::string p = "serving";
    registrations_.push_back(reg->AttachCounter(p + ".requests", &requests_));
    registrations_.push_back(reg->AttachCounter(p + ".hits", &hits_));
    registrations_.push_back(reg->AttachCounter(p + ".misses", &misses_));
    registrations_.push_back(
        reg->AttachCounter(p + ".coalesced", &coalesced_));
    registrations_.push_back(reg->AttachCounter(p + ".planned", &planned_));
    registrations_.push_back(reg->AttachCounter(p + ".rewarmed", &rewarmed_));
    static constexpr const char* kOutcomes[] = {"hit", "miss", "coalesced"};
    for (size_t i = 0; i < request_us_.size(); ++i) {
      registrations_.push_back(reg->AttachHistogram(
          obs::Labeled(p + ".request_us", {{"outcome", kOutcomes[i]}}),
          &request_us_[i]));
    }
    for (obs::Registration& r : tracer_.AttachTo(reg, p)) {
      registrations_.push_back(std::move(r));
    }
    for (obs::Registration& r : flight_store_.AttachTo(reg, p)) {
      registrations_.push_back(std::move(r));
    }
    // The admission gate's waiters and wait keep the planning pool's
    // runtime.* names: they measure the same thing, the time before
    // planning began.
    registrations_.push_back(reg->AttachCallbackGauge(
        "runtime.pool.queue_depth", [this] { return gate_.waiters(); }));
    registrations_.push_back(
        reg->AttachHistogram("runtime.pool.wait_us", &pool_wait_us_));
  }
}

StatusOr<OptimizerServer::OptimizeResult> OptimizerServer::Optimize(
    const Query& query) {
  auto start = std::chrono::steady_clock::now();
  // One epoch pin per request: everything this request derives describes
  // data at (or after) this publication epoch.
  const uint64_t epoch = data_epoch();
  // One trace per request. Head sampling decides up front: MaybeStartTrace
  // returns nullptr for unsampled requests and installing the context is a
  // no-op, leaving every SpanTimer below inert. With the flight recorder on,
  // an unsampled request gets a lazy store shell instead — Serve arms it
  // only when the request leaves the cache-hit path (miss or coalesce),
  // which is where tail latency comes from — and the retention decision
  // happens at completion (tail-based).
  std::shared_ptr<obs::Trace> trace = tracer_.MaybeStartTrace();
  obs::ScopedTraceContext trace_scope(&tracer_, trace);
  StatusOr<OptimizeResult> result = Serve(query, &trace);
  const double micros = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  // Built only when the recorder is on: an unarmed server's request path
  // never copies the query name.
  auto completion = [&](const char* outcome) {
    obs::TraceCompletion done;
    done.latency_us = micros;
    done.outcome = outcome;
    done.query_name = query.name();
    done.data_epoch = epoch;
    return done;
  };
  if (!result.ok()) {
    // Failed requests are always retained (outcome ring): the flight
    // recorder's whole point is that the interesting request is kept.
    if (flight_store_.enabled()) {
      obs::TraceCompletion failed = completion("error");
      failed.error = true;
      flight_store_.OnComplete(trace, failed);
    }
    return result;
  }
  OptimizeResult& served = result.value();
  served.data_epoch = epoch;
  served.serve_micros = micros;
  const Outcome outcome = served.cache_hit   ? Outcome::kHit
                          : served.coalesced ? Outcome::kCoalesced
                                             : Outcome::kMiss;
  // Retention is decided *before* the latency histogram records, so an
  // exemplar id is only ever written for a trace the store actually kept —
  // a p99 bucket's exemplar always resolves (until eviction).
  uint64_t exemplar_id = 0;
  if (flight_store_.enabled()) {
    obs::TraceCompletion done = completion(OutcomeName(outcome));
    done.fingerprint = served.fingerprint;
    done.stats_version = served.stats_version;
    exemplar_id = flight_store_.OnComplete(trace, done);
    if (trace == nullptr && exemplar_id != 0) {
      // A retained hit: surface the shell the store just materialized so
      // callers (RecordExecution, exec re-install) can correlate to it.
      obs::RetainedTrace kept;
      if (flight_store_.FindTrace(exemplar_id, &kept)) trace = kept.trace;
    }
  }
  served.trace = std::move(trace);
  request_us_[static_cast<size_t>(outcome)].Record(micros, exemplar_id);
  return result;
}

void OptimizerServer::RecordExecution(const Query& query,
                                      const OptimizeResult& result,
                                      const ExecutionProfile& profile) {
  if (!profile.AnyCapped() || !flight_store_.enabled()) return;
  // The row-cap signal arrives after the serve-time retention decision;
  // promote the trace into the outcome ring (or mark it capped in place)
  // so every "disastrous plan" request is retained by construction. A null
  // trace (a hit the store let go at completion) still gets a shell
  // materialized — the capped request itself is the signal.
  obs::TraceCompletion completion;
  completion.latency_us = result.serve_micros;
  completion.outcome = OutcomeName(result.cache_hit   ? Outcome::kHit
                                   : result.coalesced ? Outcome::kCoalesced
                                                      : Outcome::kMiss);
  completion.fingerprint = result.fingerprint;
  completion.query_name = query.name();
  completion.capped = true;
  completion.stats_version = result.stats_version;
  completion.data_epoch = result.data_epoch;
  completion.plan_summary = result.plan.ToString(query);
  completion.exec_micros = profile.total_micros;
  if (const NodeProfile* root = profile.node(result.plan.root())) {
    completion.rows_out = root->rows_out;
  }
  flight_store_.PromoteCapped(result.trace, completion);
}

StatusOr<OptimizerServer::OptimizeResult> OptimizerServer::OptimizeSql(
    const std::string& sql) {
  BALSA_ASSIGN_OR_RETURN(Query query, ParseSql(*schema_, sql, "served"));
  return Optimize(query);
}

StatusOr<CachedPlan> OptimizerServer::PlanMiss(const Query& query,
                                               int64_t version) {
  // The requester's trace is already installed on this thread, so the
  // queue-wait, beam-search and inference spans land in it directly.
  AdmissionGate::Slot slot;
  {
    obs::SpanTimer span(obs::TraceStage::kQueueWait);
    const auto asked = wait_armed_ ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
    slot = gate_.Acquire();
    if (wait_armed_) {
      pool_wait_us_.Record(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - asked)
                               .count());
    }
  }
  planned_.Inc();
  StatusOr<BeamSearchPlanner::PlanningResult> result = [&] {
    obs::SpanTimer span(obs::TraceStage::kBeamSearch);
    return planner_.TopK(query, nullptr);
  }();
  BALSA_RETURN_IF_ERROR(result.status());
  if (result.value().plans.empty()) {
    return Status::Internal("beam search found no plan for " + query.name());
  }
  CachedPlan entry;
  entry.plan = result.value().plans[0].plan;
  entry.predicted_ms = result.value().plans[0].predicted_ms;
  entry.stats_version = version;
  return entry;
}

StatusOr<std::shared_ptr<const CachedPlan>> OptimizerServer::PlanAndAdmit(
    const Query& query, uint64_t fingerprint,
    const std::vector<int>& canonical_rank, int64_t version) {
  BALSA_ASSIGN_OR_RETURN(CachedPlan planned, PlanMiss(query, version));
  obs::SpanTimer span(obs::TraceStage::kAdmit);
  // Store in canonical relation space so any FROM-ordering of this query
  // can translate the entry to its own numbering. The exemplar query and
  // its rank let the re-warm pass replan this fingerprint after a stats
  // bump without waiting for a client to ask again.
  planned.plan = RemapPlanRelations(planned.plan, canonical_rank);
  planned.exemplar = std::make_shared<const Query>(query);
  planned.canonical_rank = canonical_rank;
  auto shared = std::make_shared<const CachedPlan>(std::move(planned));
  cache_.Insert(fingerprint, shared);
  return shared;
}

StatusOr<OptimizerServer::OptimizeResult> OptimizerServer::PlanUncached(
    const Query& query, uint64_t fingerprint, int64_t version,
    bool coalesced) {
  BALSA_ASSIGN_OR_RETURN(CachedPlan planned, PlanMiss(query, version));
  OptimizeResult result;
  result.plan = std::move(planned.plan);
  result.predicted_ms = planned.predicted_ms;
  result.stats_version = planned.stats_version;
  result.coalesced = coalesced;
  result.fingerprint = fingerprint;
  return result;
}

StatusOr<OptimizerServer::OptimizeResult> OptimizerServer::Serve(
    const Query& query, std::shared_ptr<obs::Trace>* trace) {
  requests_.Inc();
  // Lazy flight-recorder shell for a request the tracer did not sample:
  // armed the moment it leaves the pure hit path. From then on every span
  // site on this thread (coalesce-wait, queue-wait, beam-search, inference,
  // admit) records into the shell; the hit path never reaches this and
  // stays allocation- and clock-free.
  std::optional<obs::ScopedTraceContext> flight_scope;
  auto arm_flight = [&] {
    if (!flight_store_.enabled() || *trace != nullptr) return;
    *trace = flight_store_.StartTrace();
    flight_scope.emplace(&tracer_, *trace);
  };
  const CanonicalQuery canonical = [&] {
    obs::SpanTimer span(obs::TraceStage::kFingerprint);
    return CanonicalizeQuery(query);
  }();
  const uint64_t fingerprint = canonical.fingerprint;
  const int64_t version = stats_version();

  // Cache and in-flight entries hold plans in canonical relation space;
  // translate back to this request's FROM numbering when serving. Another
  // client may have planned the "same" query with its relations listed in
  // a different order — the structure is shared, the indices are not. A
  // query has at most TableSet::kCapacity relations, so the inverse
  // permutation fits on the stack.
  const int num_relations = static_cast<int>(canonical.canonical_rank.size());
  int from_canonical[TableSet::kCapacity];
  InversePermutation(canonical.canonical_rank, from_canonical);
  auto to_result = [&from_canonical, fingerprint](const CachedPlan& entry,
                                                  bool hit, bool coalesced) {
    OptimizeResult result;
    result.plan = RemapPlanRelations(entry.plan, from_canonical);
    result.predicted_ms = entry.predicted_ms;
    result.stats_version = entry.stats_version;
    result.cache_hit = hit;
    result.coalesced = coalesced;
    result.fingerprint = fingerprint;
    return result;
  };
  // A shared entry remapped onto this query, if it is servable: only if it
  // covers exactly this query's relations (a cross-arity fingerprint
  // collision would otherwise index past from_canonical in the remap) and,
  // once remapped, every join still crosses a predicate-connected cut (a WL
  // color tie that was not a true automorphism produces a miswired remap).
  // Anything else is treated as a miss: a collision costs one beam search,
  // never a bad plan.
  auto serve_shared = [&](const CachedPlan& entry, bool hit,
                          bool coalesced) -> std::optional<OptimizeResult> {
    if (entry.plan.RootTables() !=
        TableSet::FirstN(num_relations)) {
      return std::nullopt;
    }
    OptimizeResult result = to_result(entry, hit, coalesced);
    if (!PlanMatchesQuery(query, result.plan)) return std::nullopt;
    return result;
  };

  std::shared_ptr<const CachedPlan> cached;
  bool found = false;
  {
    obs::SpanTimer span(obs::TraceStage::kCacheLookup);
    found = cache_.Lookup(fingerprint, version, &cached);
  }
  if (found) {
    if (auto result = serve_shared(*cached, /*hit=*/true,
                                   /*coalesced=*/false)) {
      hits_.Inc();
      return *std::move(result);
    }
    misses_.Inc();
    arm_flight();
    return PlanUncached(query, fingerprint, version, /*coalesced=*/false);
  }
  arm_flight();

  if (!options_.coalesce_misses) {
    misses_.Inc();
    BALSA_ASSIGN_OR_RETURN(
        std::shared_ptr<const CachedPlan> shared,
        PlanAndAdmit(query, fingerprint, canonical.canonical_rank, version));
    return to_result(*shared, /*hit=*/false, /*coalesced=*/false);
  }

  const uint64_t key = InFlightKey(fingerprint, version);
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    MutexLock lock(mu_);
    auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      flight = it->second;
    } else {
      // Double-check under mu_: a leader may have landed its plan between
      // our lookup miss and here; without this, the herd's stragglers would
      // each replan a query that is already cached. (RecheckLookup: the
      // miss was already counted above.) A remap mismatch falls through to
      // leading a fresh planning call for this FROM-ordering.
      if (cache_.RecheckLookup(fingerprint, version, &cached)) {
        if (auto result = serve_shared(*cached, /*hit=*/true,
                                       /*coalesced=*/false)) {
          hits_.Inc();
          return *std::move(result);
        }
      }
      flight = std::make_shared<InFlight>();
      in_flight_.emplace(key, flight);
      leader = true;
    }
  }

  if (leader) {
    misses_.Inc();
    StatusOr<std::shared_ptr<const CachedPlan>> planned =
        PlanAndAdmit(query, fingerprint, canonical.canonical_rank, version);
    {
      MutexLock lock(mu_);
      flight->done = true;
      if (planned.ok()) {
        flight->result = planned.value();
      } else {
        flight->status = planned.status();
      }
      in_flight_.erase(key);
    }
    cv_.NotifyAll();
    BALSA_RETURN_IF_ERROR(planned.status());
    return to_result(*planned.value(), /*hit=*/false, /*coalesced=*/false);
  }

  misses_.Inc();
  coalesced_.Inc();
  {
    obs::SpanTimer span(obs::TraceStage::kCoalesceWait);
    MutexLock lock(mu_);
    while (!flight->done) cv_.Wait(mu_);
  }
  BALSA_RETURN_IF_ERROR(flight->status);
  if (auto result = serve_shared(*flight->result, /*hit=*/false,
                                 /*coalesced=*/true)) {
    return *std::move(result);
  }
  // Shared result can't be remapped onto this FROM-ordering; plan it
  // directly (still counted as coalesced: the wait happened).
  return PlanUncached(query, fingerprint, version, /*coalesced=*/true);
}

OptimizerServer::RewarmReport OptimizerServer::Rewarm(int top_k) {
  RewarmReport report;
  const int64_t version = stats_version();
  std::vector<PlanCache::HotEntry> hot = cache_.HottestEntries(top_k);
  report.candidates = static_cast<int>(hot.size());

  std::vector<const PlanCache::HotEntry*> stale;
  for (const PlanCache::HotEntry& h : hot) {
    if (h.entry->stats_version >= version) {
      report.fresh++;
    } else if (h.entry->exemplar == nullptr) {
      report.failed++;  // pre-exemplar entry (never produced anymore)
    } else {
      stale.push_back(&h);
    }
  }
  // Replans fan out over threads started for this call, no more than the
  // gate has slots (one replan runs inline); each takes a gate slot in
  // PlanMiss, like a client miss. The exemplars stay alive through `hot`'s
  // shared entries. Each replan runs under the caller's trace context,
  // whichever thread ParallelFor puts it on, so a traced re-warm records
  // every replan's spans.
  const obs::TraceContext* current = obs::CurrentTraceContext();
  const obs::TraceContext context = current ? *current : obs::TraceContext{};
  std::vector<std::optional<StatusOr<CachedPlan>>> planned(stale.size());
  const int threads =
      static_cast<int>(std::min<size_t>(gate_.slots(), stale.size()));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  ParallelFor(pool.get(), stale.size(), [&](size_t i) {
    obs::ScopedTraceContext trace_scope(context);
    planned[i] = PlanMiss(*stale[i]->entry->exemplar, version);
  });
  for (size_t i = 0; i < stale.size(); ++i) {
    if (!planned[i]->ok()) {
      report.failed++;
      continue;
    }
    const PlanCache::HotEntry& h = *stale[i];
    CachedPlan entry = std::move(*planned[i]).value();
    entry.plan = RemapPlanRelations(entry.plan, h.entry->canonical_rank);
    entry.exemplar = h.entry->exemplar;
    entry.canonical_rank = h.entry->canonical_rank;
    cache_.Insert(h.fingerprint,
                  std::make_shared<const CachedPlan>(std::move(entry)));
    report.replanned++;
    rewarmed_.Inc();
  }
  return report;
}

OptimizerServer::Stats OptimizerServer::stats() const {
  Stats stats;
  stats.requests = requests_.Value();
  stats.hits = hits_.Value();
  stats.misses = misses_.Value();
  stats.coalesced = coalesced_.Value();
  stats.planned = planned_.Value();
  stats.rewarmed = rewarmed_.Value();
  return stats;
}

}  // namespace balsa
