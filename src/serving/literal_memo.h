// A thread's memo in front of CanonicalizeQuery's refinement: recent
// literal forms and their canonical results, so a repeated request skips
// Weisfeiler-Leman. Only query_fingerprint.cc uses it (one memo per
// thread), and it defines the members there, next to the refinement; it is
// declared here so tests can drive lookups with keys they choose, such as
// two forms forced onto one hash.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/plan/query_graph.h"
#include "src/serving/query_fingerprint.h"

namespace balsa {
namespace internal {

/// A fixed set-associative table: 12 sets of 16 ways, each way one
/// kEntryWords-word entry holding the literal form, the fingerprint and one
/// rank byte per relation. Each set replaces its ways in turn, oldest
/// first. Nothing grows after construction: the whole memo is under 121 KB.
/// Its 192 ways hold a hot set of about 100 forms (the 113 JOB queries, or
/// the 92 of them that serving benchmarks repeat) with no set overflowing.
///
/// A hit needs the stored literal form to equal the query's word for word,
/// so the memo returns exactly what refinement would. The memoized function
/// reads no statistics, so an entry never goes stale.
class LiteralMemo {
 public:
  /// Words per entry. The longest entry of the JOB, Ext-JOB and TPC-H
  /// workloads is 69 (a 17-relation JOB query); a query whose entry would
  /// not fit, such as one with a huge IN list, is not memoized.
  static constexpr size_t kEntryWords = 80;

  /// Which entry a query's literal form would be stored in, and its length.
  struct Key {
    uint64_t hash = 0;
    size_t words = 0;  // words in the literal form
  };

  /// `query`'s key, from one pass over its literal form: the words
  /// CanonicalizeQuery reads, in the order it reads them (see
  /// ForEachLiteralWord in query_fingerprint.cc).
  static Key KeyOf(const Query& query);

  /// Whether an entry for `query` under `key` fits in kEntryWords.
  static bool Fits(const Query& query, const Key& key) {
    const size_t relations = static_cast<size_t>(query.num_relations());
    return key.words + 1 + (relations + 7) / 8 <= kEntryWords;
  }

  /// The result stored for `query`'s literal form under `key`, or false.
  /// Requires Fits(query, key).
  bool Find(const Query& query, const Key& key, CanonicalQuery* out) const;

  /// Stores `canonical` for `query`'s literal form under `key`, over the
  /// oldest way of the key's set. Requires Fits(query, key).
  void Store(const Query& query, const Key& key,
             const CanonicalQuery& canonical);

 private:
  static constexpr size_t kSets = 12;
  static constexpr size_t kWays = 16;

  static size_t SetOf(uint64_t hash) {
    return static_cast<size_t>(((hash >> 32) * kSets) >> 32);
  }
  static uint32_t TagOf(uint64_t hash) { return static_cast<uint32_t>(hash); }

  alignas(64) uint32_t tags_[kSets][kWays] = {};  // a cache line per set
  uint8_t next_[kSets] = {};  // the way Store overwrites next
  /// The literal form (all zero in a way never used, which no form is),
  /// then the fingerprint, then canonical_rank as bytes (ranks are below
  /// TableSet::kCapacity = 64).
  uint64_t entries_[kSets][kWays][kEntryWords] = {};
};

}  // namespace internal
}  // namespace balsa
