// Statusz: the one-page "is it healthy" dashboard, assembled from whatever
// observability sources the caller has — a registry snapshot (required),
// an obs::HealthMonitor (the one obs ticker: adds rates such as QPS and
// ingest rows/s over its retained ring, plus SLO alert states), and an
// OptimizerServer (adds what its flight recorder retained). Renders as text
// for terminals (examples/statusz, bench_serving_throughput) and as JSON
// for tooling. Pure read path: one registry snapshot, one monitor read, one
// copy of the retained set — nothing here perturbs serving.
#pragma once

#include <string>

#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/serving/optimizer_server.h"

namespace balsa::introspect {

struct StatuszSources {
  /// Required: the registry everything is attached to.
  const obs::MetricsRegistry* registry = nullptr;
  /// Optional: adds derived rates (QPS, ingest rows/s) over the monitor's
  /// retained ring, its tick/series counts, and the alerts section (SLO
  /// rules with firing state plus recent fire/resolve transitions).
  const obs::HealthMonitor* monitor = nullptr;
  /// Optional: when the server's flight recorder is enabled, adds the
  /// flight_recorder section — its slowest retained traces and every
  /// retained row-capped or errored request.
  const OptimizerServer* server = nullptr;
};

/// The text dashboard: serving totals + QPS, per-outcome (with p99
/// exemplar trace ids) and per-stage latency percentiles, SLO alert
/// states, plan-cache occupancy and hit traffic, storage
/// epoch/retained-bytes/ingest-rate, and flight-recorder retention with
/// the retained row-capped and errored requests.
std::string StatuszText(const StatuszSources& sources);

/// The same content as one JSON object.
std::string StatuszJson(const StatuszSources& sources);

}  // namespace balsa::introspect
