// Sharded LRU plan cache: the serving layer's hot path. Entries are keyed
// by (query fingerprint, stats_version): a lookup only hits when both match,
// so bumping the statistics generation (CardOracle::BumpGeneration) makes
// every cached plan unreachable at once. Invalidation is lazy — a stale
// entry is erased the next time its fingerprint is looked up under a newer
// version, and capacity eviction reclaims the rest — so a stats bump costs
// no stop-the-world sweep.
//
// Sharding: the fingerprint picks one of kNumShards independent shards,
// each with its own mutex, map, LRU list, capacity, and counters.
// Concurrent lookups of different fingerprints contend only when they map
// to the same shard; there is no global lock anywhere in the cache.
//
// Hotness: every hit bumps the entry's hit counter; HottestEntries() ranks
// entries by it so the post-bump re-warm pass (OptimizerServer::Rewarm) can
// replan the traffic that would otherwise eat the miss storm. Replacing a
// slot's entry resets its hit count — popularity belongs to the plan, not
// the slot.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/plan/plan.h"
#include "src/plan/query_graph.h"
#include "src/util/thread_annotations.h"

namespace balsa {

struct PlanCacheOptions {
  /// Max entries per shard (total capacity = kNumShards * shard_capacity).
  /// 0 disables the cache: every Lookup misses and Insert is a no-op.
  size_t shard_capacity = 512;
};

/// A cached planning result. `stats_version` records the statistics
/// generation the plan was produced under.
struct CachedPlan {
  Plan plan;
  double predicted_ms = 0;
  int64_t stats_version = 0;
  /// The query the leader planned (in its own FROM numbering) and the
  /// permutation into the entry's canonical relation space — enough to
  /// replan this fingerprint under a newer stats_version (the re-warm pass)
  /// without a client request in hand.
  std::shared_ptr<const Query> exemplar;
  std::vector<int> canonical_rank;
};

class PlanCache {
 public:
  static constexpr int kNumShards = 8;

  explicit PlanCache(PlanCacheOptions options = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// True and fills *out iff an entry for `fingerprint` exists at exactly
  /// `stats_version` (the hit also moves it to the front of its shard's
  /// LRU). Entries are handed out as shared_ptrs so the critical section
  /// is a refcount bump, never a plan copy. An entry at an *older* version
  /// is stale: it is erased, counted as a stale eviction, and the lookup
  /// reports a miss. An entry at a *newer* version (the caller read the
  /// generation before a concurrent bump) is a plain miss and stays cached
  /// for current traffic.
  bool Lookup(uint64_t fingerprint, int64_t stats_version,
              std::shared_ptr<const CachedPlan>* out);

  /// Lookup for a miss path's double-check: identical except that a miss
  /// is not counted again (the caller already recorded one for this
  /// request). Hits and stale evictions count normally.
  bool RecheckLookup(uint64_t fingerprint, int64_t stats_version,
                     std::shared_ptr<const CachedPlan>* out);

  /// Inserts (or replaces) the entry for `fingerprint`, evicting the
  /// shard's least-recently-used entry when it is full. The cache shares
  /// the (non-null) entry rather than copying it, so the planner that made
  /// it and the requests waiting on it hold the very plan lookups return.
  /// An insert carrying an older stats_version than the cached entry is
  /// dropped — a laggard planner never downgrades the cache.
  void Insert(uint64_t fingerprint, std::shared_ptr<const CachedPlan> entry);

  /// Attaches every shard's counters under "serving.plan_cache.hits" etc.
  /// — all shards share the names, and the registry snapshot merges them
  /// into totals — plus the ".entries" occupancy and ".approx_bytes"
  /// callback gauges. Registry is borrowed and must outlive the cache;
  /// calling again replaces the previous attachments.
  void AttachMetrics(obs::MetricsRegistry* registry);

  struct Metrics {
    int64_t hits = 0;
    int64_t misses = 0;              // includes stale-eviction lookups
    int64_t insertions = 0;
    int64_t stale_evictions = 0;     // erased on version mismatch
    int64_t lru_evictions = 0;       // erased by capacity pressure
    size_t entries = 0;
  };
  Metrics shard_metrics(int shard) const;
  /// Sum of every shard's counters. Relaxed semantics, by design: the
  /// counters are obs::Counters read one atomic load at a time while
  /// traffic runs, so a Totals() is NOT a consistent cut — a concurrent
  /// lookup may have bumped `hits` but not yet be visible in `entries`,
  /// and cross-field identities (e.g. hits + misses == requests observed
  /// elsewhere) only hold at quiescence. What IS guaranteed is per-field
  /// monotonicity: every counter in a later Totals() (or registry
  /// snapshot) is >= its value in an earlier one, because each read is a
  /// single load of a value that only grows. tests/obs_test.cc pins this.
  Metrics Totals() const;

  /// The `k` entries with the most hits across all shards, most-hit first
  /// (ties broken by fingerprint for determinism). Entries are shared, not
  /// copied; hit counts are a snapshot.
  struct HotEntry {
    uint64_t fingerprint = 0;
    int64_t hits = 0;
    std::shared_ptr<const CachedPlan> entry;
  };
  std::vector<HotEntry> HottestEntries(int k) const;

  /// Approximate bytes retained by the cache: slot overhead plus each
  /// entry's plan nodes and canonical rank, with shared exemplar queries —
  /// many fingerprints may pin the same Query via shared_ptr — counted
  /// once, the same dedup-by-pointer contract as Snapshot::DataBytes over
  /// shared chunks.
  size_t ApproxBytes() const;

  size_t size() const;
  /// Which shard `fingerprint` lives in (exposed for shard-level tests).
  static int ShardOf(uint64_t fingerprint) {
    return static_cast<int>((fingerprint ^ (fingerprint >> 32)) %
                            kNumShards);
  }

 private:
  struct Shard {
    mutable Mutex mu;
    /// Front = most recently used; values are fingerprints.
    std::list<uint64_t> lru GUARDED_BY(mu);
    struct Slot {
      std::shared_ptr<const CachedPlan> entry;
      std::list<uint64_t>::iterator lru_pos;
      int64_t hits = 0;
    };
    std::unordered_map<uint64_t, Slot> map GUARDED_BY(mu);
    /// Mutated under mu (with the structures they describe) but readable
    /// lock-free: shard_metrics/Totals and the registry read them as plain
    /// atomic loads, which is what makes snapshots monotone.
    struct Counters {
      obs::Counter hits;
      obs::Counter misses;
      obs::Counter insertions;
      obs::Counter stale_evictions;
      obs::Counter lru_evictions;
    };
    Counters stats;
  };

  bool LookupImpl(uint64_t fingerprint, int64_t stats_version,
                  std::shared_ptr<const CachedPlan>* out, bool count_miss);

  PlanCacheOptions options_;
  std::array<Shard, kNumShards> shards_;
  /// Registry attachments (empty until AttachMetrics). Last member:
  /// detaches before the shards' counters die.
  std::vector<obs::Registration> registrations_;
};

}  // namespace balsa
