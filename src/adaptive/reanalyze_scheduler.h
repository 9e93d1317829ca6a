// The closed loop of the adaptive statistics subsystem: watches the change
// stream, and when a table's drift score crosses threshold it re-ANALYZEs
// the table, swaps the merged statistics into the serving estimator, bumps
// the CardOracle generation (invalidating every cached plan at once), and
// re-warms the plan cache's hottest fingerprints so post-bump traffic does
// not eat a miss storm:
//
//   ingest (ChangeLog) ──► DriftDetector.Score per table
//        │ score >= 1
//        ▼
//   incremental merge (MergeTableDelta) ── past staleness bound ──► full
//        │                                                    AnalyzeTable
//        ▼
//   SwappableEstimator::Swap(new stats) ──► CardOracle::BumpGeneration()
//        │
//        ▼
//   OptimizerServer::Rewarm(top_k)   (optional, server != nullptr)
//
// Re-ANALYZE never blocks ingest: ChangeLog::Rebase captures the delta and
// a pinned storage snapshot atomically, then the merge — or the full rescan
// of the snapshot — runs with writers live, and mutations that land during
// it are replayed into the fresh delta against the new anchor. The
// incremental path costs O(columns · buckets); the full path rescans only
// the drifted table. Either way, only drifted tables are touched.
//
// Drive it one of two ways:
//   - RunOnce(): one synchronous check pass (tests, deterministic benches);
//   - Start()/Stop(): a background timer thread that runs the pass every
//     check_interval_ms, on the timer thread itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/adaptive/drift_detector.h"
#include "src/obs/metrics.h"
#include "src/serving/optimizer_server.h"
#include "src/stats/card_oracle.h"
#include "src/stats/swappable_estimator.h"
#include "src/storage/change_log.h"
#include "src/util/thread_annotations.h"

namespace balsa {

struct ReanalyzeSchedulerOptions {
  DriftThresholds thresholds;
  /// Background check period (Start()).
  double check_interval_ms = 50;
  /// Hottest fingerprints to replan after each bump (0 disables re-warm,
  /// or pass server == nullptr).
  int rewarm_top_k = 8;
};

class ReanalyzeScheduler {
 public:
  /// All pointers are borrowed and must outlive the scheduler. `server`
  /// may be null (no re-warm). The oracle's memoized true cardinalities
  /// need no invalidation hook here: they are tagged with storage
  /// publication epochs and expire on their own as ingest publishes new
  /// versions.
  ReanalyzeScheduler(Database* db, ChangeLog* log, CardOracle* oracle,
                     SwappableEstimator* estimator, OptimizerServer* server,
                     ReanalyzeSchedulerOptions options = {});
  ~ReanalyzeScheduler();

  ReanalyzeScheduler(const ReanalyzeScheduler&) = delete;
  ReanalyzeScheduler& operator=(const ReanalyzeScheduler&) = delete;

  struct PassReport {
    int tables_checked = 0;
    int tables_drifted = 0;
    int incremental_merges = 0;
    int full_reanalyzes = 0;
    /// Tables whose re-ANALYZE failed this pass (skipped; their deltas keep
    /// accumulating and the next pass retries). A failure never discards
    /// another table's completed re-ANALYZE: whatever succeeded is still
    /// installed and bumped.
    int errors = 0;
    double max_score = 0;
    /// Set when the pass re-analyzed something and bumped the generation.
    bool bumped = false;
    int64_t new_version = 0;
    OptimizerServer::RewarmReport rewarm;
  };

  /// One synchronous detect → re-ANALYZE → swap → bump → re-warm pass.
  /// Serialized against concurrent passes (background or manual). Never
  /// fails as a whole: per-table re-ANALYZE errors are counted in
  /// PassReport::errors (and counters().errors) and those tables retry on
  /// the next pass.
  PassReport RunOnce();

  /// Starts / stops the background timer loop. Idempotent.
  void Start();
  void Stop();

  struct Counters {
    int64_t passes = 0;
    int64_t bumps = 0;
    int64_t incremental_merges = 0;
    int64_t full_reanalyzes = 0;
    int64_t rewarm_replans = 0;
    int64_t errors = 0;
  };
  Counters counters() const;

  /// Wall µs of each table's re-ANALYZE (the Rebase call: incremental
  /// merge or full rescan, writers live throughout).
  const obs::Log2Histogram& reanalyze_us() const { return reanalyze_us_; }
  /// Drift scores observed per checked table, in milli-units (score ×
  /// 1000, so sub-threshold drift still lands above bucket zero).
  const obs::Log2Histogram& drift_score_milli() const {
    return drift_score_milli_;
  }

  const DriftDetector& detector() const { return detector_; }

  /// Attaches the counters, the drift-score and re-ANALYZE duration
  /// histograms, and the peak-drift gauge under "adaptive.". Registry is
  /// borrowed and must outlive the scheduler; calling again replaces the
  /// previous attachments.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  PassReport RunPass() EXCLUDES(pass_mu_);
  void TimerLoop() EXCLUDES(timer_mu_);

  Database* db_;
  ChangeLog* log_;
  CardOracle* oracle_;
  SwappableEstimator* estimator_;
  OptimizerServer* server_;
  ReanalyzeSchedulerOptions options_;
  DriftDetector detector_;

  Mutex pass_mu_;  // serializes passes
  std::vector<int> incremental_rounds_ GUARDED_BY(pass_mu_);  // per table

  obs::Counter passes_;
  obs::Counter bumps_;
  obs::Counter incremental_merges_;
  obs::Counter full_reanalyzes_;
  obs::Counter rewarm_replans_;
  obs::Counter errors_;
  obs::Log2Histogram reanalyze_us_;
  obs::Log2Histogram drift_score_milli_;
  obs::Gauge max_drift_score_milli_;  // high-water mark across passes

  Mutex timer_mu_;
  CondVar timer_cv_;
  bool stop_ GUARDED_BY(timer_mu_) = true;
  std::thread timer_;

  /// Registry attachments (empty until AttachMetrics). Last member.
  std::vector<obs::Registration> registrations_;
};

}  // namespace balsa
