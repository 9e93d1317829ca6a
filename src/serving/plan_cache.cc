#include "src/serving/plan_cache.h"

#include <algorithm>
#include <string>
#include <unordered_set>

namespace balsa {

PlanCache::PlanCache(PlanCacheOptions options) : options_(options) {}

void PlanCache::AttachMetrics(obs::MetricsRegistry* registry) {
  registrations_.clear();
  if (registry == nullptr) return;
  const std::string p = "serving.plan_cache";
  // Every shard attaches under the same names; the registry merges
  // duplicates at snapshot time, so the export reads as cache-wide totals.
  for (Shard& shard : shards_) {
    registrations_.push_back(registry->AttachCounter(p + ".hits",
                                                     &shard.stats.hits));
    registrations_.push_back(registry->AttachCounter(p + ".misses",
                                                     &shard.stats.misses));
    registrations_.push_back(registry->AttachCounter(
        p + ".insertions", &shard.stats.insertions));
    registrations_.push_back(registry->AttachCounter(
        p + ".stale_evictions", &shard.stats.stale_evictions));
    registrations_.push_back(registry->AttachCounter(
        p + ".lru_evictions", &shard.stats.lru_evictions));
  }
  // Occupancy and footprint are snapshot-time reads (they take the shard
  // mutexes), not hot-path pushes.
  registrations_.push_back(registry->AttachCallbackGauge(
      p + ".entries", [this] { return static_cast<int64_t>(size()); }));
  registrations_.push_back(registry->AttachCallbackGauge(
      p + ".approx_bytes",
      [this] { return static_cast<int64_t>(ApproxBytes()); }));
}

bool PlanCache::Lookup(uint64_t fingerprint, int64_t stats_version,
                       std::shared_ptr<const CachedPlan>* out) {
  return LookupImpl(fingerprint, stats_version, out, /*count_miss=*/true);
}

bool PlanCache::RecheckLookup(uint64_t fingerprint, int64_t stats_version,
                              std::shared_ptr<const CachedPlan>* out) {
  return LookupImpl(fingerprint, stats_version, out, /*count_miss=*/false);
}

bool PlanCache::LookupImpl(uint64_t fingerprint, int64_t stats_version,
                           std::shared_ptr<const CachedPlan>* out,
                           bool count_miss) {
  Shard& shard = shards_[static_cast<size_t>(ShardOf(fingerprint))];
  MutexLock lock(shard.mu);
  auto it = shard.map.find(fingerprint);
  if (it == shard.map.end()) {
    if (count_miss) shard.stats.misses.Inc();
    return false;
  }
  if (it->second.entry->stats_version != stats_version) {
    // Never serve across generations. An *older* entry is stale: reclaim
    // the slot now rather than waiting for capacity pressure. A *newer*
    // entry means this request read the generation before a concurrent
    // bump — miss, but leave the fresh plan for current-generation traffic.
    if (it->second.entry->stats_version < stats_version) {
      shard.lru.erase(it->second.lru_pos);
      shard.map.erase(it);
      shard.stats.stale_evictions.Inc();
    }
    if (count_miss) shard.stats.misses.Inc();
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  it->second.hits++;
  *out = it->second.entry;
  shard.stats.hits.Inc();
  return true;
}

void PlanCache::Insert(uint64_t fingerprint,
                       std::shared_ptr<const CachedPlan> entry) {
  if (options_.shard_capacity == 0) return;
  Shard& shard = shards_[static_cast<size_t>(ShardOf(fingerprint))];
  MutexLock lock(shard.mu);
  auto it = shard.map.find(fingerprint);
  if (it != shard.map.end()) {
    // A laggard request that planned under an already-bumped generation
    // must not clobber the newer plan.
    if (entry->stats_version < it->second.entry->stats_version) return;
    it->second.entry = std::move(entry);
    // The replacing plan starts its popularity from zero: inherited hit
    // counts would let a fresh-generation plan ride the stale plan's fame
    // through HottestEntries/Rewarm ranking.
    it->second.hits = 0;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    shard.stats.insertions.Inc();
    return;
  }
  if (shard.map.size() >= options_.shard_capacity) {
    uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    shard.map.erase(victim);
    shard.stats.lru_evictions.Inc();
  }
  shard.lru.push_front(fingerprint);
  shard.map.emplace(fingerprint,
                    Shard::Slot{std::move(entry), shard.lru.begin(), 0});
  shard.stats.insertions.Inc();
}

PlanCache::Metrics PlanCache::shard_metrics(int shard) const {
  const Shard& s = shards_[static_cast<size_t>(shard)];
  Metrics stats;
  stats.hits = s.stats.hits.Value();
  stats.misses = s.stats.misses.Value();
  stats.insertions = s.stats.insertions.Value();
  stats.stale_evictions = s.stats.stale_evictions.Value();
  stats.lru_evictions = s.stats.lru_evictions.Value();
  MutexLock lock(s.mu);
  stats.entries = s.map.size();
  return stats;
}

PlanCache::Metrics PlanCache::Totals() const {
  Metrics total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Metrics s = shard_metrics(static_cast<int>(i));
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.stale_evictions += s.stale_evictions;
    total.lru_evictions += s.lru_evictions;
    total.entries += s.entries;
  }
  return total;
}

std::vector<PlanCache::HotEntry> PlanCache::HottestEntries(int k) const {
  std::vector<HotEntry> all;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [fingerprint, slot] : shard.map) {
      all.push_back({fingerprint, slot.hits, slot.entry});
    }
  }
  std::sort(all.begin(), all.end(), [](const HotEntry& a, const HotEntry& b) {
    return a.hits != b.hits ? a.hits > b.hits : a.fingerprint < b.fingerprint;
  });
  if (k >= 0 && all.size() > static_cast<size_t>(k)) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

size_t PlanCache::ApproxBytes() const {
  std::unordered_set<const Query*> seen_exemplars;
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [fingerprint, slot] : shard.map) {
      (void)fingerprint;
      total += sizeof(uint64_t) + sizeof(Shard::Slot) + sizeof(CachedPlan);
      const CachedPlan& entry = *slot.entry;
      total += static_cast<size_t>(entry.plan.num_nodes()) * sizeof(PlanNode);
      total += entry.canonical_rank.size() * sizeof(int);
      const Query* exemplar = entry.exemplar.get();
      if (exemplar != nullptr && seen_exemplars.insert(exemplar).second) {
        total += sizeof(Query) +
                 exemplar->relations().size() * sizeof(QueryRelation) +
                 exemplar->joins().size() * sizeof(JoinPredicate) +
                 exemplar->filters().size() * sizeof(FilterPredicate);
      }
    }
  }
  return total;
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace balsa
