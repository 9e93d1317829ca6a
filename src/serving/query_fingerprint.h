// Canonical structural fingerprint of a Query, the serving layer's cache
// key. Two queries get the same fingerprint iff they describe the same
// planning problem: the same multiset of base tables, the same join graph
// (edges labeled by the joined columns), and the same filter predicates
// (operator + constants) on corresponding relations — regardless of the
// order relations appear in the FROM list and regardless of alias spelling.
// A repeated query, or the same query text with aliases renamed or tables
// reordered, therefore hits the same plan-cache slot.
//
// Because the fingerprint erases FROM order while Plan leaves index the
// FROM list positionally, canonicalization also produces a *canonical
// relation ordering*: plans are stored in canonical relation space and
// translated to each requester's numbering on the way out
// (RemapPlanRelations), so a FROM-reordered query receives a plan wired to
// its own relation indices, not the original requester's.
//
// The fingerprint is computed by Weisfeiler-Leman color refinement on the
// join graph: each relation starts from a hash of (table, sorted filters)
// and absorbs its neighbors' colors along column-labeled join edges for
// num_relations rounds; the final hash folds the sorted multiset of colors
// and edges, and the canonical ordering sorts relations by final color.
// Color ties are almost always true structural symmetries (where any
// assignment is equivalent), but 1-WL classes can be coarser than
// automorphism orbits on pathologically regular self-join graphs — so the
// server validates every remapped plan against the requester's join
// predicates and replans on mismatch: a bad tie costs one beam search,
// never a miswired plan. Fingerprint collisions likewise map two planning
// problems to one slot; the same validation bounds the damage to plan
// quality (a replan), not correctness.
#pragma once

#include <cstdint>
#include <vector>

#include "src/plan/plan.h"
#include "src/plan/query_graph.h"

namespace balsa {

struct CanonicalQuery {
  /// Alias-order-invariant structural hash of (tables, join graph, filters).
  uint64_t fingerprint = 0;
  /// canonical_rank[i] = position of query relation i in the canonical
  /// ordering. Structurally corresponding relations of two equivalent
  /// queries receive the same rank, whatever their FROM positions.
  std::vector<int> canonical_rank;
};

/// Fingerprint plus the canonical relation ordering for `query`. Runs on
/// every request, so it heap-allocates only the returned canonical_rank
/// (plus, once per thread, its fixed 121 KB memo, and per-thread scratch
/// the first time a thread refines a query this big). A literal form the
/// calling thread canonicalized recently (same tables in FROM order, same
/// predicates in order; aliases and the name do not count) is answered from
/// that thread's memo without refinement, after an exact compare, so the
/// result is identical either way.
CanonicalQuery CanonicalizeQuery(const Query& query);

/// Fingerprint only (convenience for callers that never exchange plans).
uint64_t QueryFingerprint(const Query& query);

/// Rewrites every leaf of `plan` through `relation_map` (new relation of
/// old relation i is relation_map[i]), recomputing node table sets. Used to
/// move plans between a query's FROM numbering and canonical numbering.
/// Precondition: every leaf relation indexes into relation_map — the server
/// gates cross-arity fingerprint collisions before remapping.
Plan RemapPlanRelations(const Plan& plan, const std::vector<int>& relation_map);
Plan RemapPlanRelations(const Plan& plan, const int* relation_map);

/// The inverse permutation of `relation_map`.
std::vector<int> InversePermutation(const std::vector<int>& relation_map);
/// The same, written to relation_map.size() ints at `inverse`.
void InversePermutation(const std::vector<int>& relation_map, int* inverse);

}  // namespace balsa
