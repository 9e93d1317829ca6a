#include "src/serving/query_fingerprint.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/serving/literal_memo.h"

namespace balsa {

namespace {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 31);
}

/// Order-independent fold of a multiset of `count` hashes; sorts them in
/// place. Short runs sort by compare-exchange insertion, which has no
/// data-dependent branch to mispredict; the refinement rounds sort one
/// short, random run per relation per round.
uint64_t FoldSorted(uint64_t* values, size_t count, uint64_t seed) {
  if (count > 16) {
    std::sort(values, values + count);
  } else {
    for (size_t i = 1; i < count; ++i) {
      for (size_t j = i; j > 0; --j) {
        uint64_t lo = std::min(values[j - 1], values[j]);
        values[j] = std::max(values[j - 1], values[j]);
        values[j - 1] = lo;
      }
    }
  }
  uint64_t h = seed;
  for (size_t i = 0; i < count; ++i) h = Mix(h, values[i]);
  return h;
}

struct Incident {
  uint64_t edge;  // Mix(label, own column, other column)
  int other;      // neighbor relation
};

/// Per-thread buffers for the arrays whose length is a predicate count.
/// They are cleared between calls, so after a thread's first query a call
/// allocates only when a query outgrows every earlier one. A buffer a
/// query grew past kRetained entries is freed at the end of that call, so
/// a thread holds at most 48 KB between calls however large a
/// client's IN list or join list was.
struct Scratch {
  static constexpr size_t kRetained = 1024;

  std::vector<std::pair<int, uint64_t>> filters;  // (relation, filter hash)
  std::vector<uint64_t> values;     // one IN list, then the final edges
  std::vector<Incident> adjacency;  // CSR: relation r's edges at offset[r]
  std::vector<uint64_t> terms;      // one round's incident terms, same CSR

  void Trim() {
    Trim(&filters);
    Trim(&values);
    Trim(&adjacency);
    Trim(&terms);
  }
  template <typename T>
  static void Trim(std::vector<T>* v) {
    if (v->capacity() > kRetained) std::vector<T>().swap(*v);
  }
};

/// The literal form CanonicalizeQuery reads, one 64-bit word at a time, in
/// the order it reads it: the relation count and the predicate counts, each
/// relation's table in FROM order, each join's (relation, column) pairs and
/// each filter's (relation, column), operator, IN-list length, constant and
/// IN values. Aliases and the query name are never read, so they are not
/// here. The counts make the stream parse one way only, so two queries
/// with the same stream are the same input to refinement, and no stream
/// is a proper prefix of another: comparing a query's words with the start
/// of a stored entry needs no length check. Counts are packed 16 bits
/// apiece, which is exact for every query whose stream fits a LiteralMemo
/// entry.
template <typename Sink>
void ForEachLiteralWord(const Query& query, Sink&& sink) {
  auto column = [](ColumnRef c) {
    return static_cast<uint64_t>(static_cast<uint32_t>(c.relation)) << 32 |
           static_cast<uint32_t>(c.column);
  };
  sink(static_cast<uint64_t>(query.num_relations()) |
       static_cast<uint64_t>(query.joins().size()) << 16 |
       static_cast<uint64_t>(query.filters().size()) << 32);
  for (const QueryRelation& r : query.relations()) {
    sink(static_cast<uint64_t>(static_cast<uint32_t>(r.table_idx)));
  }
  for (const JoinPredicate& j : query.joins()) {
    sink(column(j.left));
    sink(column(j.right));
  }
  for (const FilterPredicate& f : query.filters()) {
    sink(column(f.col));
    sink(static_cast<uint64_t>(f.op) |
         static_cast<uint64_t>(f.in_values.size()) << 16);
    sink(static_cast<uint64_t>(f.value));
    for (int64_t v : f.in_values) sink(static_cast<uint64_t>(v));
  }
}

// Arrays indexed by relation live on the stack (a Query has at most
// TableSet::kCapacity relations); arrays indexed by predicate reuse the
// thread's Scratch.
CanonicalQuery Refine(const Query& query) {
  const int n = query.num_relations();
  thread_local Scratch scratch;

  // Initial color: what the relation *is* (schema table) plus what its
  // filters keep — everything about it except its name and position. A
  // relation's filters hash to a sorted run of (relation, hash) pairs.
  scratch.filters.clear();
  for (const FilterPredicate& f : query.filters()) {
    uint64_t h = Mix(0xF117E7ULL, static_cast<uint64_t>(f.col.column));
    h = Mix(h, static_cast<uint64_t>(f.op));
    h = Mix(h, static_cast<uint64_t>(f.value));
    // IN-lists are sets: {1, 5} and {5, 1} filter identically.
    scratch.values.assign(f.in_values.begin(), f.in_values.end());
    h = Mix(h, FoldSorted(scratch.values.data(), scratch.values.size(), 0x1A));
    scratch.filters.push_back({f.col.relation, h});
  }
  auto* filter = scratch.filters.data();
  auto* filters_end = filter + scratch.filters.size();
  std::sort(filter, filters_end);

  // Entries [0, n) of color, next and order are written before they are
  // read and the rest are never read, so they are not zeroed: clearing
  // 1.3 KB per call is a measurable share of a cache hit.
  uint64_t color_a[TableSet::kCapacity];
  uint64_t color_b[TableSet::kCapacity];
  uint64_t* color = color_a;
  uint64_t* next = color_b;
  for (int r = 0; r < n; ++r) {
    while (filter < filters_end && filter->first < r) ++filter;
    uint64_t filters_hash = 0x2B;
    for (; filter < filters_end && filter->first == r; ++filter) {
      filters_hash = Mix(filters_hash, filter->second);
    }
    uint64_t h =
        Mix(0xC0104ULL, static_cast<uint64_t>(query.relations()[r].table_idx));
    color[r] = Mix(h, filters_hash);
  }

  // Adjacency in CSR form with precomputed edge-label hashes, so the
  // refinement rounds touch each incident predicate directly instead of
  // rescanning the whole join list per relation per round.
  const std::vector<JoinPredicate>& joins = query.joins();
  // Each run fills back to front, which leaves offset[r] at its start.
  int offset[TableSet::kCapacity + 1] = {};
  for (const JoinPredicate& j : joins) {
    ++offset[j.left.relation];
    ++offset[j.right.relation];
  }
  for (int r = 1; r <= n; ++r) offset[r] += offset[r - 1];
  scratch.adjacency.resize(2 * joins.size());
  Incident* adjacency = scratch.adjacency.data();
  for (const JoinPredicate& j : joins) {
    uint64_t left_edge = Mix(
        Mix(0xED6EULL, static_cast<uint64_t>(j.left.column)),
        static_cast<uint64_t>(j.right.column));
    uint64_t right_edge = Mix(
        Mix(0xED6EULL, static_cast<uint64_t>(j.right.column)),
        static_cast<uint64_t>(j.left.column));
    adjacency[--offset[j.left.relation]] = {left_edge, j.right.relation};
    adjacency[--offset[j.right.relation]] = {right_edge, j.left.relation};
  }

  // Refinement: absorb neighbor colors along column-labeled join edges.
  // After n rounds every color has seen the whole connected component, so
  // relations distinguishable by their position in the join graph get
  // distinct colors while symmetric ones (true automorphisms) stay equal —
  // exactly the queries that plan identically.
  scratch.terms.resize(scratch.adjacency.size());
  uint64_t* terms = scratch.terms.data();
  for (int round = 0; round < n; ++round) {
    for (int k = 0; k < offset[n]; ++k) {
      terms[k] = Mix(adjacency[k].edge, color[adjacency[k].other]);
    }
    for (int r = 0; r < n; ++r) {
      next[r] = Mix(color[r], FoldSorted(terms + offset[r],
                                         offset[r + 1] - offset[r], 0x3C));
    }
    std::swap(color, next);
  }

  // Final hash: the color multiset plus every edge under final colors.
  scratch.values.clear();
  for (const JoinPredicate& j : joins) {
    uint64_t a = Mix(color[j.left.relation],
                     static_cast<uint64_t>(j.left.column));
    uint64_t b = Mix(color[j.right.relation],
                     static_cast<uint64_t>(j.right.column));
    if (a > b) std::swap(a, b);  // equality joins are symmetric
    scratch.values.push_back(Mix(a, b));
  }

  CanonicalQuery canonical;
  // Canonical ordering: sort relations by final color, breaking ties by
  // FROM position. Equal colors after n refinement rounds are structural
  // symmetries in all but pathologically regular graphs (1-WL can be
  // coarser than automorphism orbits), so the consumer validates remapped
  // plans rather than trusting tie-breaks blindly (see optimizer_server).
  int order[TableSet::kCapacity];
  for (int r = 0; r < n; ++r) order[r] = r;
  std::sort(order, order + n, [color](int a, int b) {
    return color[a] != color[b] ? color[a] < color[b] : a < b;
  });
  canonical.canonical_rank.resize(static_cast<size_t>(n));
  // Walking relations in canonical order also visits the colors sorted.
  uint64_t colors_hash = 0x4D;
  for (int rank = 0; rank < n; ++rank) {
    canonical.canonical_rank[static_cast<size_t>(order[rank])] = rank;
    colors_hash = Mix(colors_hash, color[order[rank]]);
  }

  uint64_t h = Mix(0xF1DE5ULL, static_cast<uint64_t>(n));
  h = Mix(h, colors_hash);
  canonical.fingerprint =
      Mix(h, FoldSorted(scratch.values.data(), scratch.values.size(), 0x5E));
  scratch.Trim();
  return canonical;
}

}  // namespace

namespace internal {

LiteralMemo::Key LiteralMemo::KeyOf(const Query& query) {
  Key key{0x11EAULL, 0};
  ForEachLiteralWord(query, [&key](uint64_t word) {
    key.hash = Mix(key.hash, word);
    ++key.words;
  });
  return key;
}

bool LiteralMemo::Find(const Query& query, const Key& key,
                       CanonicalQuery* out) const {
  const size_t set = SetOf(key.hash);
  const uint32_t tag = TagOf(key.hash);
  for (size_t way = 0; way < kWays; ++way) {
    if (tags_[set][way] != tag) continue;
    const uint64_t* entry = entries_[set][way];
    uint64_t diff = 0;
    const uint64_t* stored = entry;
    ForEachLiteralWord(query, [&](uint64_t word) { diff |= word ^ *stored++; });
    if (diff != 0) continue;
    out->fingerprint = entry[key.words];
    const auto* rank = reinterpret_cast<const uint8_t*>(entry + 1 + key.words);
    out->canonical_rank.assign(rank, rank + query.num_relations());
    return true;
  }
  return false;
}

void LiteralMemo::Store(const Query& query, const Key& key,
                        const CanonicalQuery& canonical) {
  const size_t set = SetOf(key.hash);
  const size_t way = next_[set];
  next_[set] = static_cast<uint8_t>((way + 1) % kWays);
  tags_[set][way] = TagOf(key.hash);
  uint64_t* entry = entries_[set][way];
  uint64_t* word = entry;
  ForEachLiteralWord(query, [&word](uint64_t w) { *word++ = w; });
  entry[key.words] = canonical.fingerprint;
  auto* rank = reinterpret_cast<uint8_t*>(entry + 1 + key.words);
  for (size_t r = 0; r < canonical.canonical_rank.size(); ++r) {
    rank[r] = static_cast<uint8_t>(canonical.canonical_rank[r]);
  }
}

static_assert(sizeof(LiteralMemo) <= 128 * 1024, "a thread's memo is bounded");

}  // namespace internal

CanonicalQuery CanonicalizeQuery(const Query& query) {
  using internal::LiteralMemo;
  if (query.num_relations() == 0) return {};
  const LiteralMemo::Key key = LiteralMemo::KeyOf(query);
  if (!LiteralMemo::Fits(query, key)) return Refine(query);
  thread_local std::unique_ptr<LiteralMemo> memo;
  if (memo == nullptr) memo = std::make_unique<LiteralMemo>();
  CanonicalQuery canonical;
  if (memo->Find(query, key, &canonical)) return canonical;
  canonical = Refine(query);
  memo->Store(query, key, canonical);
  return canonical;
}

uint64_t QueryFingerprint(const Query& query) {
  return CanonicalizeQuery(query).fingerprint;
}

Plan RemapPlanRelations(const Plan& plan,
                        const std::vector<int>& relation_map) {
  return RemapPlanRelations(plan, relation_map.data());
}

Plan RemapPlanRelations(const Plan& plan, const int* relation_map) {
  // Rebuild node-by-node in arena order: indices (and hence child links)
  // are preserved, and AddScan/AddJoin recompute the table sets under the
  // new numbering.
  Plan out;
  out.Reserve(plan.num_nodes());
  for (int i = 0; i < plan.num_nodes(); ++i) {
    const PlanNode& node = plan.node(i);
    if (node.is_join) {
      out.AddJoin(node.left, node.right, node.join_op);
    } else {
      out.AddScan(relation_map[node.relation], node.scan_op);
    }
  }
  out.set_root(plan.root());
  return out;
}

std::vector<int> InversePermutation(const std::vector<int>& relation_map) {
  std::vector<int> inverse(relation_map.size());
  InversePermutation(relation_map, inverse.data());
  return inverse;
}

void InversePermutation(const std::vector<int>& relation_map, int* inverse) {
  for (size_t i = 0; i < relation_map.size(); ++i) {
    inverse[relation_map[i]] = static_cast<int>(i);
  }
}

}  // namespace balsa
