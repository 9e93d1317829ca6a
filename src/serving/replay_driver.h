// Closed-loop workload replayer: the serving layer's load generator. Spawns
// `num_clients` real client threads against one OptimizerServer; each
// client draws queries from a seeded (optionally Zipf-skewed) popularity
// distribution over the workload and issues the next request as soon as the
// previous one returns — the classic closed-loop model, so measured
// throughput is requests the *server* sustained, not an open-loop offered
// rate. Collects exact per-request latencies (merged across clients) and
// verifies the serving invariant along the way: every client must receive
// the identical plan for the same query at the same stats_version.
#pragma once

#include <cstdint>
#include <vector>

#include "src/serving/optimizer_server.h"
#include "src/util/status.h"
#include "src/workloads/workload.h"

namespace balsa {

struct ReplayOptions {
  int num_clients = 16;
  int requests_per_client = 100;
  /// Zipf exponent of query popularity (0 = uniform). Real serving traffic
  /// is heavily skewed; skew is what a plan cache monetizes.
  double zipf_s = 0.9;
  uint64_t seed = 1;
  /// Record every client's issued query-index sequence into
  /// ReplayReport::client_sequences. The sequence is a pure function of
  /// (seed, client index) — never of timing or server thread counts — so
  /// replays are reproducible; tests/serving_replay_test.cc asserts it.
  bool record_sequences = false;
};

struct ReplayReport {
  int64_t requests = 0;
  double wall_seconds = 0;
  double requests_per_sec = 0;
  /// Fraction of requests served straight from the plan cache.
  double hit_rate = 0;
  /// Exact per-request end-to-end latency summary, merged across clients
  /// (each request's OptimizeResult::serve_micros — the same latency the
  /// flight recorder's retention decision is made on).
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  /// The single slowest request (same serve_micros value the flight
  /// recorder's top-K retention saw, so a tail assertion can compare the
  /// two for exact equality).
  double max_us = 0;
  OptimizerServer::Stats server;
  /// True iff all clients saw one plan fingerprint per query index.
  bool plans_consistent = true;
  /// Range of stats_versions the served plans carried. Equal min/max means
  /// the whole replay ran inside one statistics generation; after a
  /// re-ANALYZE bump, a replay's min must be the new version — the
  /// zero-stale-plans gate of bench_adaptive_drift.
  int64_t min_stats_version = 0;
  int64_t max_stats_version = 0;
  /// Per-client issued query indices (only when options.record_sequences).
  std::vector<std::vector<int>> client_sequences;
};

/// Replays `queries` against `server` and reports throughput/latency.
/// Thread-count invariant in results (plans), not in timing.
StatusOr<ReplayReport> ReplayWorkload(OptimizerServer* server,
                                      const std::vector<const Query*>& queries,
                                      const ReplayOptions& options = {});

}  // namespace balsa
