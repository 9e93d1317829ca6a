// The execution environment Balsa learns against. Stands in for
// PostgreSQL / CommDB: executes a physical plan and reports its latency.
//
// Latency is grounded in *true* cardinalities (measured by the CardOracle,
// which really executes the joins on the stored data), passed through the
// engine's per-operator cost curves, plus multiplicative lognormal noise.
// This gives the environment exactly the properties the paper's learning
// problem needs: latencies are noisy, operator- and order-sensitive, and
// systematically different from the bootstrap cost model (which sees only
// *estimated* cardinalities and no physical operators).
//
// Disastrous plans exist: any plan whose intermediates hit the executor's
// row cap is assigned at least `kDisasterMinLatencyMs`.
#pragma once

#include <string>
#include <unordered_map>

#include "src/cost/cost_model.h"
#include "src/stats/card_oracle.h"
#include "src/util/rng.h"

namespace balsa {

/// Minimum latency assigned to plans whose intermediates overflow the
/// executor row cap (a "disastrous" plan).
inline constexpr double kDisasterMinLatencyMs = 300'000.0;

struct EngineOptions {
  std::string name = "PostgresLike";
  EngineCostParams params;
  /// Engines whose hint interface cannot express bushy joins (CommDB, §8.2)
  /// reject bushy plans.
  bool accepts_bushy = true;
  /// Seeds the per-execution lognormal latency noise (sigma 0.08).
  uint64_t noise_seed = 1234;
};

/// Factory profiles for the two expert systems in the paper's evaluation.
EngineOptions PostgresLikeEngineOptions();
EngineOptions CommDbLikeEngineOptions();

struct ExecutionResult {
  /// Virtual milliseconds the execution took. If `timed_out`, this is the
  /// timeout value (the time actually spent before the kill).
  double latency_ms = 0;
  bool timed_out = false;
  /// Served from the plan cache (§7): no new execution happened.
  bool from_cache = false;
};

class ExecutionEngine {
 public:
  ExecutionEngine(const Database* db, CardOracle* oracle,
                  EngineOptions options)
      : db_(db),
        oracle_(oracle),
        options_(std::move(options)),
        noise_rng_(options_.noise_seed) {}

  /// Executes `plan`; `timeout_ms <= 0` means no timeout. The plan cache is
  /// consulted first (reissued plans skip re-execution, §7).
  StatusOr<ExecutionResult> Execute(const Query& query, const Plan& plan,
                                    double timeout_ms = -1);

  /// True latency without noise/cache/timeout (for tests and analysis).
  StatusOr<double> NoiselessLatency(const Query& query, const Plan& plan);

  /// Whether this engine's hint interface can execute the plan's shape.
  bool AcceptsPlan(const Plan& plan) const {
    return options_.accepts_bushy || !plan.IsBushy();
  }

  const EngineOptions& options() const { return options_; }
  int64_t num_real_executions() const { return num_real_executions_; }
  size_t plan_cache_size() const { return plan_cache_.size(); }

 private:
  StatusOr<double> ComputeLatency(const Query& query, const Plan& plan,
                                  bool* disastrous);

  const Database* db_;
  CardOracle* oracle_;
  EngineOptions options_;
  Rng noise_rng_;
  /// (query id, plan fingerprint) -> measured latency.
  std::unordered_map<uint64_t, double> plan_cache_;
  int64_t num_real_executions_ = 0;
};

/// Models the pool of identical execution VMs (§7): jobs are assigned to the
/// least-loaded of `num_workers` workers; the makespan is the virtual time
/// the iteration's execute phase takes.
class ExecutionPoolModel {
 public:
  explicit ExecutionPoolModel(int num_workers) : num_workers_(num_workers) {}

  /// Virtual duration of executing `latencies_ms` on the pool.
  double Makespan(const std::vector<double>& latencies_ms) const;

  int num_workers() const { return num_workers_; }

 private:
  int num_workers_;
};

}  // namespace balsa
