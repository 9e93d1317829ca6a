#include "src/stats/card_oracle.h"

#include <algorithm>

namespace balsa {

bool CardOracle::TryGet(uint64_t key, uint64_t epoch, TrueCard* out) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  if (it->second.epoch != epoch) {
    // Older than our snapshot: data mutated since it was measured — lazily
    // reclaim the slot. Newer: a concurrent reader already recomputed it
    // against fresher data than our snapshot; miss, but keep their work.
    if (it->second.epoch < epoch) shard.map.erase(it);
    return false;
  }
  *out = it->second.card;
  return true;
}

void CardOracle::Put(uint64_t key, TrueCard card, uint64_t epoch) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.map.emplace(key, Entry{card, epoch});
  } else if (it->second.epoch < epoch ||
             (it->second.epoch == epoch && it->second.card.capped &&
              !card.capped)) {
    it->second = Entry{card, epoch};
  }
}

Executor CardOracle::PinExecutor() const {
  ExecutorOptions options;
  options.row_cap = row_cap_;
  return Executor(db_->GetSnapshot(), options);
}

StatusOr<TrueCard> CardOracle::Cardinality(const Query& query, TableSet set) {
  if (query.id() < 0) {
    return Status::InvalidArgument("query " + query.name() + " has no id");
  }
  if (set.empty()) return Status::InvalidArgument("empty table set");
  // Fast path: a hit at the current epoch needs no snapshot pin.
  TrueCard cached;
  if (TryGet(Key(query.id(), set), data_epoch(), &cached)) return cached;
  // Pin a snapshot before reading any data: if an ingest batch lands while
  // we execute, our results are stamped with the pinned (pre-mutation)
  // epoch and expire with it.
  Executor executor = PinExecutor();
  return ComputeBySteps(executor, executor.snapshot().epoch(), query, set);
}

StatusOr<TrueCard> CardOracle::CardinalityWith(const Executor& executor,
                                               uint64_t epoch,
                                               const Query& query,
                                               TableSet set) {
  if (query.id() < 0) {
    return Status::InvalidArgument("query " + query.name() + " has no id");
  }
  if (set.empty()) return Status::InvalidArgument("empty table set");
  TrueCard cached;
  if (TryGet(Key(query.id(), set), epoch, &cached)) return cached;
  return ComputeBySteps(executor, epoch, query, set);
}

StatusOr<TrueCard> CardOracle::ComputeBySteps(const Executor& executor,
                                              uint64_t epoch,
                                              const Query& query,
                                              TableSet set) {
  // Join the set left-deep in a connected, smallest-first order, caching
  // every prefix cardinality along the way.
  std::vector<std::pair<int64_t, int>> bases;  // (filtered rows, rel)
  std::vector<Intermediate> scans(query.num_relations());
  for (int rel : set) {
    BALSA_ASSIGN_OR_RETURN(scans[rel], executor.Scan(query, rel));
    bases.push_back({scans[rel].NumRows(), rel});
    Put(Key(query.id(), TableSet::Single(rel)),
        {static_cast<double>(scans[rel].NumRows()), scans[rel].capped},
        epoch);
  }
  std::sort(bases.begin(), bases.end());

  // Start from the smallest relation; grow by the smallest connected one.
  Intermediate current = std::move(scans[bases[0].second]);
  TableSet done = TableSet::Single(bases[0].second);
  num_executions_.fetch_add(1, std::memory_order_relaxed);
  while (done != set) {
    int next = -1;
    for (const auto& [rows, rel] : bases) {
      if (done.Contains(rel)) continue;
      if (query.CanJoin(done, TableSet::Single(rel))) {
        next = rel;
        break;
      }
    }
    if (next < 0) {
      return Status::InvalidArgument("table set " + set.ToString() +
                                     " is not join-connected in query " +
                                     query.name());
    }
    TableSet grown = done.With(next);
    uint64_t key = Key(query.id(), grown);
    TrueCard hit;
    // Even on a cache hit we must materialize the intermediate to continue,
    // unless the grown set is the final target.
    if (grown == set && TryGet(key, epoch, &hit)) return hit;
    BALSA_ASSIGN_OR_RETURN(current,
                           executor.Join(query, current, scans[next]));
    num_executions_.fetch_add(1, std::memory_order_relaxed);
    TrueCard card{static_cast<double>(current.NumRows()), current.capped};
    Put(key, card, epoch);
    done = grown;
    if (current.capped) {
      // Everything above a capped intermediate is also capped; don't keep
      // joining a truncated result.
      return TrueCard{static_cast<double>(current.NumRows()), true};
    }
  }
  // `current` is the materialized join of the full set (don't re-read the
  // memo here: an epoch advance mid-computation would expire our own Put).
  return TrueCard{static_cast<double>(current.NumRows()), current.capped};
}

StatusOr<std::vector<TrueCard>> CardOracle::PlanCardinalities(
    const Query& query, const Plan& plan) {
  std::vector<TrueCard> out(plan.num_nodes());
  // Fast path: every node's set already cached at the current epoch.
  const uint64_t epoch_now = data_epoch();
  bool all_cached = true;
  for (int i = 0; i < plan.num_nodes() && all_cached; ++i) {
    all_cached = TryGet(Key(query.id(), plan.node(i).tables), epoch_now,
                        &out[i]);
  }
  if (all_cached) return out;
  // One snapshot for the whole plan: every node's cardinality describes the
  // same publication epoch even while writers ingest.
  Executor executor = PinExecutor();
  const uint64_t epoch = executor.snapshot().epoch();
  for (int i = 0; i < plan.num_nodes(); ++i) {
    BALSA_ASSIGN_OR_RETURN(
        TrueCard card,
        CardinalityWith(executor, epoch, query, plan.node(i).tables));
    out[i] = card;
  }
  return out;
}

}  // namespace balsa
