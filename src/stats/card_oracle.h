// True-cardinality oracle: measures exact intermediate result sizes by
// actually executing joins on the stored data, with memoization per
// (query, table set). The engine latency models are grounded in these
// measurements, so "reality" diverges from the estimator exactly as it does
// between PostgreSQL's planner and its executor.
//
// Every computation pins a storage Snapshot and tags its memoized results
// with that snapshot's publication epoch. Data mutation (the change stream)
// advances the epoch on publish, so stale entries expire on their own — no
// manual invalidation, no reader/writer exclusion: cardinality probes run
// concurrently with ingest and always describe one consistent epoch.
//
// Thread safety: the memo table is sharded (kNumShards shards by key hash),
// so the concurrent hot path — a cache hit — takes only one shard lock and
// concurrent hits on different shards never contend. Misses compute without
// any global lock: the executor reads an immutable snapshot, cardinalities
// are pure functions of (query, set, epoch), and every cache write stores
// the same bytes for a given (key, epoch), so concurrent duplicate
// computations are wasteful but can never change a result. Results are
// bitwise identical for any thread count within one epoch.
//
// The generation counter versions the statistics regime the rest of the
// system plans under (TableStats/estimator snapshots). Bumping it does not
// touch the memo — true cardinalities stay true — but lets higher layers
// (the serving plan cache, async training) detect that plans derived from
// older statistics are stale.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "src/exec/executor.h"
#include "src/plan/plan.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace balsa {

struct TrueCard {
  double rows = 0;
  /// The executor hit its row cap: the true size is >= rows. Plans through
  /// capped intermediates are "disastrous" in the paper's sense.
  bool capped = false;
};

class CardOracle {
 public:
  static constexpr int kNumShards = 16;

  /// `row_cap` caps every intermediate the oracle executes (see
  /// ExecutorOptions::row_cap); cardinalities past it come back `capped`.
  explicit CardOracle(const Database* db,
                      int64_t row_cap = ExecutorOptions{}.row_cap)
      : db_(db), row_cap_(row_cap) {}

  /// True cardinality of the join of `set` (with filters), measured against
  /// a snapshot pinned for this call. Queries must have unique,
  /// non-negative ids.
  StatusOr<TrueCard> Cardinality(const Query& query, TableSet set);

  /// True cardinalities for every node of `plan`, indexed by arena
  /// position, all measured against ONE pinned snapshot. One bottom-up
  /// execution fills the cache for all subtrees.
  StatusOr<std::vector<TrueCard>> PlanCardinalities(const Query& query,
                                                    const Plan& plan);

  /// Live (current data-epoch) memo entries; stale ones are excluded even
  /// before their lazy eviction.
  size_t CacheSize() const {
    const uint64_t epoch = data_epoch();
    size_t total = 0;
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mu);
      for (const auto& [key, entry] : shard.map) {
        if (entry.epoch == epoch) total++;
      }
    }
    return total;
  }
  int64_t NumExecutions() const {
    return num_executions_.load(std::memory_order_relaxed);
  }

  /// The storage publication epoch memo entries are currently valid at.
  /// Ingest advances it on every published batch; entries stamped with
  /// older epochs read as misses and are erased lazily on next touch, so a
  /// write-heavy stream invalidates continuously at zero cost. In-flight
  /// computations stamp their results with the epoch of the snapshot they
  /// pinned, so they can never resurrect pre-mutation counts as current.
  uint64_t data_epoch() const { return db_->publication_epoch(); }

  const Database* db() const { return db_; }

  /// Statistics generation this oracle's consumers currently plan under.
  /// Monotonic; the serving layer keys its plan cache by it so a bump
  /// lazily invalidates every cached plan (see src/serving/plan_cache.h).
  int64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  struct Entry {
    TrueCard card;
    /// Publication epoch of the snapshot the cardinality was measured on.
    uint64_t epoch = 0;
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, Entry> map GUARDED_BY(mu);
  };

  static uint64_t Key(int query_id, TableSet set) {
    uint64_t h = static_cast<uint64_t>(query_id + 1) * 0x9E3779B97F4A7C15ULL;
    h ^= set.bits() + 0xBF58476D1CE4E5B9ULL + (h << 6) + (h >> 2);
    return h;
  }

  Shard& ShardFor(uint64_t key) {
    // The low bits already mix query id and set bits; fold the high half in
    // so shard choice is not dominated by either.
    return shards_[(key ^ (key >> 32)) % kNumShards];
  }
  /// Hit only for entries at `epoch`; entries at older epochs are erased
  /// and read as misses.
  bool TryGet(uint64_t key, uint64_t epoch, TrueCard* out);
  /// Inserts `card` computed under `epoch`. Never downgrades: a same-epoch
  /// uncapped value is not replaced by a capped one, and a newer-epoch
  /// entry is not replaced by a laggard computation's older-epoch result.
  void Put(uint64_t key, TrueCard card, uint64_t epoch);

  /// Validation + memo lookup + stepwise execution against `executor`'s
  /// pinned snapshot (whose epoch must be `epoch`).
  StatusOr<TrueCard> CardinalityWith(const Executor& executor, uint64_t epoch,
                                     const Query& query, TableSet set);
  StatusOr<TrueCard> ComputeBySteps(const Executor& executor, uint64_t epoch,
                                    const Query& query, TableSet set);

  /// An executor over a freshly pinned snapshot, capped at row_cap_.
  Executor PinExecutor() const;

  const Database* db_;
  int64_t row_cap_;
  Shard shards_[kNumShards];
  /// Intentionally unguarded: relaxed execution tally (NumExecutions is a
  /// progress probe, not a consistent cut over the shard maps).
  std::atomic<int64_t> num_executions_{0};
  /// Intentionally unguarded: monotone generation published with
  /// acquire/release (see generation()/BumpGeneration()).
  std::atomic<int64_t> generation_{0};
};

}  // namespace balsa
