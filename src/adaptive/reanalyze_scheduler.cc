#include "src/adaptive/reanalyze_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/obs/trace.h"
#include "src/stats/incremental_analyze.h"
#include "src/stats/table_stats.h"

namespace balsa {

namespace {

/// Incremental merge is used while the accumulated change fraction
/// (changed rows / anchor base rows) stays at or below this; past it, the
/// sketch approximations are no longer trusted and the table is fully
/// rescanned.
constexpr double kFullReanalyzeFraction = 1.0;
/// Staleness bound: after this many consecutive incremental merges of one
/// table, the next re-ANALYZE is a full rescan regardless.
constexpr int kMaxIncrementalRounds = 4;

}  // namespace

ReanalyzeScheduler::ReanalyzeScheduler(Database* db, ChangeLog* log,
                                       CardOracle* oracle,
                                       SwappableEstimator* estimator,
                                       OptimizerServer* server,
                                       ReanalyzeSchedulerOptions options)
    : db_(db),
      log_(log),
      oracle_(oracle),
      estimator_(estimator),
      server_(server),
      options_(options),
      detector_(options.thresholds),
      incremental_rounds_(static_cast<size_t>(log->num_tables()), 0) {}

ReanalyzeScheduler::~ReanalyzeScheduler() { Stop(); }

void ReanalyzeScheduler::AttachMetrics(obs::MetricsRegistry* registry) {
  registrations_.clear();
  if (registry == nullptr) return;
  registrations_.push_back(
      registry->AttachCounter("adaptive.passes", &passes_));
  registrations_.push_back(registry->AttachCounter("adaptive.bumps", &bumps_));
  registrations_.push_back(registry->AttachCounter(
      "adaptive.incremental_merges", &incremental_merges_));
  registrations_.push_back(
      registry->AttachCounter("adaptive.full_reanalyzes", &full_reanalyzes_));
  registrations_.push_back(
      registry->AttachCounter("adaptive.rewarm_replans", &rewarm_replans_));
  registrations_.push_back(
      registry->AttachCounter("adaptive.errors", &errors_));
  registrations_.push_back(
      registry->AttachHistogram("adaptive.reanalyze_us", &reanalyze_us_));
  registrations_.push_back(registry->AttachHistogram(
      "adaptive.drift_score_milli", &drift_score_milli_));
  registrations_.push_back(registry->AttachGauge(
      "adaptive.max_drift_score_milli", &max_drift_score_milli_));
}

ReanalyzeScheduler::PassReport ReanalyzeScheduler::RunOnce() {
  return RunPass();
}

ReanalyzeScheduler::PassReport ReanalyzeScheduler::RunPass() {
  MutexLock pass_lock(pass_mu_);
  passes_.Inc();
  PassReport report;

  std::shared_ptr<const CardinalityEstimator> current = estimator_->current();
  const std::vector<TableStats>& stats = current->stats();
  const int64_t new_version = oracle_->generation() + 1;

  std::vector<TableStats> next_stats = stats;
  bool any = false;
  for (int t = 0; t < log_->num_tables(); ++t) {
    if (static_cast<size_t>(t) >= stats.size()) break;
    TableDelta delta = log_->Snapshot(t);
    if (delta.epoch == 0) continue;
    report.tables_checked++;
    DriftScore score = detector_.Score(stats[static_cast<size_t>(t)],
                                       log_->anchor(t), delta);
    report.max_score = std::max(report.max_score, score.score);
    // Milli-units: log2 buckets can't resolve [0, 2), and scores hover
    // around the 1.0 drift threshold.
    const int64_t score_milli = static_cast<int64_t>(score.score * 1000.0);
    drift_score_milli_.Record(static_cast<double>(score_milli));
    max_drift_score_milli_.UpdateMax(score_milli);
    if (!score.drifted) continue;
    report.tables_drifted++;

    // Rebase captures (delta, anchor, pinned snapshot) atomically and runs
    // this callback with writers LIVE: the merge absorbs exactly the
    // captured delta, and the full rescan reads the immutable snapshot —
    // ingest is never stalled by a re-ANALYZE.
    int& rounds = incremental_rounds_[static_cast<size_t>(t)];
    TableStats merged;
    bool full = false;
    const auto reanalyze_start = std::chrono::steady_clock::now();
    Status status = [&] {
      // kReanalyze span: inert unless the pass runs under a trace context
      // (e.g. a traced end-to-end driver).
      obs::SpanTimer reanalyze_span(obs::TraceStage::kReanalyze);
      return log_->Rebase(
          t, [&](const TableDelta& locked_delta, const TableAnchor& anchor,
                 const Snapshot& snapshot) -> StatusOr<TableAnchor> {
            const double changed =
                static_cast<double>(locked_delta.rows_inserted +
                                    locked_delta.rows_deleted +
                                    locked_delta.rows_updated);
            const double base = static_cast<double>(
                std::max<int64_t>(1, anchor.base_row_count));
            full = rounds >= kMaxIncrementalRounds ||
                   changed / base > kFullReanalyzeFraction;
            if (full) {
              BALSA_ASSIGN_OR_RETURN(merged,
                                     AnalyzeTable(snapshot, t, new_version));
            } else {
              merged = MergeTableDelta(stats[static_cast<size_t>(t)], anchor,
                                       locked_delta, new_version);
            }
            return MakeTableAnchor(merged);
          });
    }();
    reanalyze_us_.Record(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() -
                             reanalyze_start)
                             .count());
    if (!status.ok()) {
      // Skip this table (its delta keeps accumulating; the next pass
      // retries) but keep going: aborting here would discard another
      // table's completed Rebase, whose anchor already reflects merged
      // stats that MUST still be installed below.
      errors_.Inc();
      report.errors++;
      continue;
    }
    if (full) {
      rounds = 0;
      report.full_reanalyzes++;
      full_reanalyzes_.Inc();
    } else {
      rounds++;
      report.incremental_merges++;
      incremental_merges_.Inc();
    }
    next_stats[static_cast<size_t>(t)] = std::move(merged);
    any = true;
  }
  if (!any) return report;

  // Install first, then bump: a request that reads the new generation is
  // guaranteed to plan against the new statistics. (A request racing the
  // window plans new-stats-at-old-version; its entry dies with the bump.)
  estimator_->Swap(std::make_shared<const CardinalityEstimator>(
      current->schema(), std::move(next_stats)));
  oracle_->BumpGeneration();
  report.bumped = true;
  report.new_version = oracle_->generation();

  if (server_ != nullptr && options_.rewarm_top_k > 0) {
    report.rewarm = server_->Rewarm(options_.rewarm_top_k);
    rewarm_replans_.Inc(report.rewarm.replanned);
  }
  // Counted after the re-warm: a poller that waits for counters().bumps to
  // advance observes the warmed cache, not a half-finished pass.
  bumps_.Inc();
  return report;
}

void ReanalyzeScheduler::Start() {
  MutexLock lock(timer_mu_);
  if (!stop_) return;
  stop_ = false;
  timer_ = std::thread([this] { TimerLoop(); });
}

void ReanalyzeScheduler::Stop() {
  {
    MutexLock lock(timer_mu_);
    if (stop_) return;
    stop_ = true;
  }
  timer_cv_.NotifyAll();
  if (timer_.joinable()) timer_.join();
}

void ReanalyzeScheduler::TimerLoop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.check_interval_ms);
  while (true) {
    {
      MutexLock lock(timer_mu_);
      // One check interval per lap, cut short only by Stop(): spurious
      // wakeups re-wait against the same deadline.
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stop_ && timer_cv_.WaitUntil(timer_mu_, deadline) !=
                           std::cv_status::timeout) {
      }
      if (stop_) return;
    }
    // Per-table errors are counted inside the pass; the next tick retries.
    RunPass();
  }
}

ReanalyzeScheduler::Counters ReanalyzeScheduler::counters() const {
  Counters counters;
  counters.passes = passes_.Value();
  counters.bumps = bumps_.Value();
  counters.incremental_merges = incremental_merges_.Value();
  counters.full_reanalyzes = full_reanalyzes_.Value();
  counters.rewarm_replans = rewarm_replans_.Value();
  counters.errors = errors_.Value();
  return counters;
}

}  // namespace balsa
