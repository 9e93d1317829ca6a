// The sharded LRU plan cache: eviction order, shard independence, and
// stats-version (lazy) invalidation.
#include "src/serving/plan_cache.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace balsa {
namespace {

std::shared_ptr<CachedPlan> MakeEntry(int relation, int64_t version = 0) {
  auto entry = std::make_shared<CachedPlan>();
  entry->plan.AddScan(relation, ScanOp::kSeqScan);
  entry->plan.set_root(0);
  entry->predicted_ms = relation * 10.0;
  entry->stats_version = version;
  return entry;
}

/// Finds `count` fingerprints that all land in shard `shard`.
std::vector<uint64_t> KeysInShard(const PlanCache& cache, int shard,
                                  int count) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; static_cast<int>(keys.size()) < count; ++k) {
    if (cache.ShardOf(k) == shard) keys.push_back(k);
  }
  return keys;
}

TEST(PlanCacheTest, LookupMissesOnEmpty) {
  PlanCache cache;
  std::shared_ptr<const CachedPlan> out;
  EXPECT_FALSE(cache.Lookup(42, 0, &out));
  EXPECT_EQ(cache.Totals().misses, 1);
}

TEST(PlanCacheTest, InsertThenLookupRoundTrips) {
  PlanCache cache;
  cache.Insert(42, MakeEntry(3, 7));
  std::shared_ptr<const CachedPlan> out;
  ASSERT_TRUE(cache.Lookup(42, 7, &out));
  EXPECT_EQ(out->plan.node(0).relation, 3);
  EXPECT_EQ(out->stats_version, 7);
  EXPECT_EQ(cache.Totals().hits, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedFirst) {
  PlanCacheOptions options;
  options.shard_capacity = 2;
  PlanCache cache(options);
  // Three keys of one shard, so they compete for its two slots.
  const std::vector<uint64_t> k = KeysInShard(cache, 0, 3);
  cache.Insert(k[0], MakeEntry(1));
  cache.Insert(k[1], MakeEntry(2));
  std::shared_ptr<const CachedPlan> out;
  // Touch k[0] so k[1] becomes the LRU victim.
  ASSERT_TRUE(cache.Lookup(k[0], 0, &out));
  cache.Insert(k[2], MakeEntry(3));
  EXPECT_TRUE(cache.Lookup(k[0], 0, &out));
  EXPECT_FALSE(cache.Lookup(k[1], 0, &out));  // evicted
  EXPECT_TRUE(cache.Lookup(k[2], 0, &out));
  EXPECT_EQ(cache.Totals().lru_evictions, 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, ReinsertFreshensInsteadOfEvicting) {
  PlanCacheOptions options;
  options.shard_capacity = 2;
  PlanCache cache(options);
  const std::vector<uint64_t> k = KeysInShard(cache, 0, 2);
  cache.Insert(k[0], MakeEntry(1));
  cache.Insert(k[1], MakeEntry(2));
  // Replace: k[1] stays, k[0] moves to the front.
  cache.Insert(k[0], MakeEntry(4));
  std::shared_ptr<const CachedPlan> out;
  ASSERT_TRUE(cache.Lookup(k[0], 0, &out));
  EXPECT_EQ(out->plan.node(0).relation, 4);
  EXPECT_TRUE(cache.Lookup(k[1], 0, &out));
  EXPECT_EQ(cache.Totals().lru_evictions, 0);
}

TEST(PlanCacheTest, ShardsEvictIndependently) {
  PlanCacheOptions options;
  options.shard_capacity = 1;
  PlanCache cache(options);
  std::vector<uint64_t> shard0 = KeysInShard(cache, 0, 2);
  std::vector<uint64_t> shard1 = KeysInShard(cache, 1, 1);

  cache.Insert(shard0[0], MakeEntry(1));
  cache.Insert(shard1[0], MakeEntry(2));
  // Overflow shard 0 only: shard 1's entry must survive.
  cache.Insert(shard0[1], MakeEntry(3));

  std::shared_ptr<const CachedPlan> out;
  EXPECT_FALSE(cache.Lookup(shard0[0], 0, &out));
  EXPECT_TRUE(cache.Lookup(shard0[1], 0, &out));
  EXPECT_TRUE(cache.Lookup(shard1[0], 0, &out));
  EXPECT_EQ(cache.shard_metrics(0).lru_evictions, 1);
  EXPECT_EQ(cache.shard_metrics(1).lru_evictions, 0);
  EXPECT_EQ(cache.shard_metrics(1).entries, 1u);
}

TEST(PlanCacheTest, StatsVersionMismatchIsAMissAndEvictsLazily) {
  PlanCache cache;
  cache.Insert(42, MakeEntry(3, /*version=*/0));
  std::shared_ptr<const CachedPlan> out;
  // The bump happened: version-1 lookups must never see the version-0 plan,
  // and the first one reclaims the slot.
  EXPECT_FALSE(cache.Lookup(42, 1, &out));
  EXPECT_EQ(cache.Totals().stale_evictions, 1);
  EXPECT_EQ(cache.size(), 0u);
  // Older-version lookups can't resurrect it either.
  EXPECT_FALSE(cache.Lookup(42, 0, &out));

  cache.Insert(42, MakeEntry(5, /*version=*/1));
  ASSERT_TRUE(cache.Lookup(42, 1, &out));
  EXPECT_EQ(out->stats_version, 1);
}

TEST(PlanCacheTest, LaggardRequestsNeverDowngradeFreshEntries) {
  PlanCache cache;
  // A bump raced this request: the cache already holds the version-1 plan
  // when a version-0 reader arrives. It must miss *without* evicting.
  cache.Insert(42, MakeEntry(5, /*version=*/1));
  std::shared_ptr<const CachedPlan> out;
  EXPECT_FALSE(cache.Lookup(42, 0, &out));
  EXPECT_EQ(cache.Totals().stale_evictions, 0);
  ASSERT_TRUE(cache.Lookup(42, 1, &out));  // fresh entry survived
  EXPECT_EQ(out->plan.node(0).relation, 5);

  // And the laggard's own (old-generation) plan is dropped on insert.
  cache.Insert(42, MakeEntry(3, /*version=*/0));
  ASSERT_TRUE(cache.Lookup(42, 1, &out));
  EXPECT_EQ(out->plan.node(0).relation, 5);
}

TEST(PlanCacheTest, RecheckLookupDoesNotDoubleCountMisses) {
  PlanCache cache;
  std::shared_ptr<const CachedPlan> out;
  // The miss path's sequence: counted lookup, then an uncounted recheck.
  EXPECT_FALSE(cache.Lookup(42, 0, &out));
  EXPECT_FALSE(cache.RecheckLookup(42, 0, &out));
  EXPECT_EQ(cache.Totals().misses, 1);
  // A recheck that hits still counts the hit (a plan was served).
  cache.Insert(42, MakeEntry(3));
  EXPECT_TRUE(cache.RecheckLookup(42, 0, &out));
  EXPECT_EQ(cache.Totals().hits, 1);
}

TEST(PlanCacheTest, ZeroCapacityDisablesTheCache) {
  PlanCacheOptions options;
  options.shard_capacity = 0;
  PlanCache cache(options);
  cache.Insert(42, MakeEntry(3));
  std::shared_ptr<const CachedPlan> out;
  EXPECT_FALSE(cache.Lookup(42, 0, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, CountersAddUpAcrossShards) {
  PlanCache cache;
  for (uint64_t k = 0; k < 100; ++k) cache.Insert(k, MakeEntry(1));
  std::shared_ptr<const CachedPlan> out;
  int hits = 0;
  for (uint64_t k = 0; k < 150; ++k) hits += cache.Lookup(k, 0, &out);
  EXPECT_EQ(hits, 100);
  PlanCache::Metrics total = cache.Totals();
  EXPECT_EQ(total.insertions, 100);
  EXPECT_EQ(total.hits, 100);
  EXPECT_EQ(total.misses, 50);
  EXPECT_EQ(total.entries, 100u);
}

TEST(PlanCacheTest, HottestEntriesRankByHits) {
  PlanCache cache;
  for (uint64_t k = 1; k <= 4; ++k) cache.Insert(k, MakeEntry(static_cast<int>(k)));
  std::shared_ptr<const CachedPlan> out;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cache.Lookup(3, 0, &out));
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(cache.Lookup(1, 0, &out));

  std::vector<PlanCache::HotEntry> hot = cache.HottestEntries(3);
  ASSERT_EQ(hot.size(), 3u);
  EXPECT_EQ(hot[0].fingerprint, 3u);
  EXPECT_EQ(hot[0].hits, 5);
  EXPECT_EQ(hot[1].fingerprint, 1u);
  EXPECT_EQ(hot[1].hits, 2);
  EXPECT_EQ(hot[2].hits, 0);  // ties by fingerprint: 2 before 4
  EXPECT_EQ(hot[2].fingerprint, 2u);
  // Entries are shared with the cache, not copied.
  EXPECT_EQ(hot[0].entry->plan.node(0).relation, 3);

  // Replacing an entry (the re-warm path) resets its heat: popularity
  // belongs to the plan, not the slot.
  cache.Insert(3, MakeEntry(9, 1));
  hot = cache.HottestEntries(1);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].fingerprint, 1u);
  EXPECT_EQ(hot[0].hits, 2);
}

TEST(PlanCacheTest, ReplacementResetsHitCount) {
  // Regression: a replacing insert used to keep the old slot's hit count,
  // so a fresh-generation plan inherited the stale plan's popularity and
  // skewed HottestEntries/Rewarm ranking.
  PlanCache cache;
  cache.Insert(1, MakeEntry(1, 0));
  cache.Insert(2, MakeEntry(2, 0));
  std::shared_ptr<const CachedPlan> out;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(cache.Lookup(1, 0, &out));
  ASSERT_TRUE(cache.Lookup(2, 0, &out));

  cache.Insert(1, MakeEntry(5, 1));  // new generation replaces the slot
  std::vector<PlanCache::HotEntry> hot = cache.HottestEntries(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].fingerprint, 2u);  // 2's single real hit now outranks 1
  EXPECT_EQ(hot[0].hits, 1);
  EXPECT_EQ(hot[1].fingerprint, 1u);
  EXPECT_EQ(hot[1].hits, 0);
  EXPECT_EQ(hot[1].entry->stats_version, 1);

  // The replacing plan is what the slot serves, and hits after the
  // replacement accrue to it normally.
  ASSERT_TRUE(cache.Lookup(1, 1, &out));
  EXPECT_EQ(out->plan.node(0).relation, 5);
  EXPECT_EQ(cache.Totals().insertions, 3);
  hot = cache.HottestEntries(1);
  EXPECT_EQ(hot[0].fingerprint, 1u);
  EXPECT_EQ(hot[0].hits, 1);
}

TEST(PlanCacheTest, ApproxBytesCountsSharedExemplarsOnce) {
  // Re-warm entries for many fingerprints often pin the *same* exemplar
  // Query via shared_ptr; the accounting must count it once, exactly like
  // Snapshot::DataBytes counts a chunk shared across versions once.
  auto make_exemplar = [] {
    return std::make_shared<const Query>(
        "q", std::vector<QueryRelation>(3), std::vector<JoinPredicate>{},
        std::vector<FilterPredicate>{});
  };

  PlanCache with_shared;
  EXPECT_EQ(with_shared.ApproxBytes(), 0u);
  auto shared = make_exemplar();
  auto a = MakeEntry(1);
  a->exemplar = shared;
  a->canonical_rank = {0, 1, 2};
  auto b = MakeEntry(2);
  b->exemplar = shared;
  b->canonical_rank = {0, 1, 2};
  with_shared.Insert(1, std::move(a));
  const size_t one_entry = with_shared.ApproxBytes();
  EXPECT_GT(one_entry, 0u);
  with_shared.Insert(2, std::move(b));
  const size_t shared_bytes = with_shared.ApproxBytes();

  PlanCache with_distinct;
  auto c = MakeEntry(1);
  c->exemplar = make_exemplar();
  c->canonical_rank = {0, 1, 2};
  auto d = MakeEntry(2);
  d->exemplar = make_exemplar();
  d->canonical_rank = {0, 1, 2};
  with_distinct.Insert(1, std::move(c));
  with_distinct.Insert(2, std::move(d));
  const size_t distinct_bytes = with_distinct.ApproxBytes();

  // Identical caches except for exemplar sharing: the difference is exactly
  // one deduped exemplar.
  EXPECT_LT(shared_bytes, distinct_bytes);
  EXPECT_EQ(distinct_bytes - shared_bytes,
            sizeof(Query) + 3 * sizeof(QueryRelation));
  // The second shared-exemplar entry still pays for its own slot and plan.
  EXPECT_GT(shared_bytes, one_entry);
}

// Totals() under racing lookups and inserts: no consistent cut is promised,
// but every monotone counter must (a) never decrease across successive
// Totals() calls and (b) lie within the per-shard sums taken before and
// after it — Totals() reads the shards in the same order as shard_metrics,
// so an interleaved read can only land between the two fences.
TEST(PlanCacheTest, TotalsStayMonotoneAndBoundedUnderConcurrency) {
  PlanCacheOptions options;
  options.shard_capacity = 16;  // small: force LRU evictions too
  PlanCache cache(options);

  auto sum_shards = [&] {
    PlanCache::Metrics sum;
    for (int s = 0; s < PlanCache::kNumShards; ++s) {
      PlanCache::Metrics m = cache.shard_metrics(s);
      sum.hits += m.hits;
      sum.misses += m.misses;
      sum.insertions += m.insertions;
      sum.stale_evictions += m.stale_evictions;
      sum.lru_evictions += m.lru_evictions;
    }
    return sum;
  };

  std::atomic<int> active{4};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      uint64_t key = static_cast<uint64_t>(t) * 7919 + 1;
      for (int i = 0; i < 30000; ++i) {
        key = key * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t fp = key % 256;
        std::shared_ptr<const CachedPlan> out;
        if (!cache.Lookup(fp, 0, &out)) {
          cache.Insert(fp, MakeEntry(static_cast<int>(fp % 4)));
        }
      }
      active.fetch_sub(1, std::memory_order_relaxed);
    });
  }

  // Read concurrently for as long as the writers run (and a few rounds
  // past quiescence), checking the bounds on every read.
  PlanCache::Metrics prev;
  for (int round = 0;
       round < 50 || active.load(std::memory_order_relaxed) > 0; ++round) {
    const PlanCache::Metrics before = sum_shards();
    const PlanCache::Metrics totals = cache.Totals();
    const PlanCache::Metrics after = sum_shards();

    auto check = [&](int64_t lo, int64_t mid, int64_t hi, int64_t last,
                     const char* field) {
      EXPECT_LE(lo, mid) << field << " below the pre-fence shard sum";
      EXPECT_LE(mid, hi) << field << " above the post-fence shard sum";
      EXPECT_GE(mid, last) << field << " went backwards across Totals()";
    };
    check(before.hits, totals.hits, after.hits, prev.hits, "hits");
    check(before.misses, totals.misses, after.misses, prev.misses, "misses");
    check(before.insertions, totals.insertions, after.insertions,
          prev.insertions, "insertions");
    check(before.stale_evictions, totals.stale_evictions,
          after.stale_evictions, prev.stale_evictions, "stale_evictions");
    check(before.lru_evictions, totals.lru_evictions, after.lru_evictions,
          prev.lru_evictions, "lru_evictions");
    prev = totals;
  }
  for (std::thread& w : workers) w.join();

  // At quiescence the cross-field identities hold exactly.
  const PlanCache::Metrics final_totals = cache.Totals();
  const PlanCache::Metrics final_sum = sum_shards();
  EXPECT_EQ(final_totals.hits, final_sum.hits);
  EXPECT_EQ(final_totals.misses, final_sum.misses);
  EXPECT_EQ(final_totals.insertions, final_sum.insertions);
  EXPECT_GT(final_totals.hits + final_totals.misses, 0);
}

}  // namespace
}  // namespace balsa
