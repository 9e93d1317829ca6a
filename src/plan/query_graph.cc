#include "src/plan/query_graph.h"

#include <algorithm>

#include "src/util/logging.h"

namespace balsa {

Query::Query(std::string name, std::vector<QueryRelation> relations,
             std::vector<JoinPredicate> joins,
             std::vector<FilterPredicate> filters)
    : name_(std::move(name)),
      relations_(std::move(relations)),
      joins_(std::move(joins)),
      filters_(std::move(filters)) {
  BALSA_CHECK(num_relations() <= TableSet::kCapacity,
              "a query joins at most 64 relations");
  neighbors_.assign(relations_.size(), TableSet());
  for (const auto& j : joins_) {
    neighbors_[j.left.relation] =
        neighbors_[j.left.relation].With(j.right.relation);
    neighbors_[j.right.relation] =
        neighbors_[j.right.relation].With(j.left.relation);
  }
}

TableSet Query::NeighborsOf(TableSet set) const {
  TableSet out;
  for (int rel : set) out = out.Union(neighbors_[rel]);
  return out.Minus(set);
}

bool Query::IsConnected(TableSet set) const {
  if (set.empty()) return false;
  if (set.size() == 1) return true;
  TableSet visited = TableSet::Single(set.First());
  while (true) {
    TableSet frontier = NeighborsOf(visited).Intersect(set);
    if (frontier.empty()) break;
    visited = visited.Union(frontier);
  }
  return visited == set;
}

bool Query::CanJoin(TableSet left, TableSet right) const {
  return !left.Intersects(right) && NeighborsOf(left).Intersects(right);
}

std::vector<JoinPredicate> Query::JoinsBetween(TableSet left,
                                               TableSet right) const {
  std::vector<JoinPredicate> out;
  for (const auto& j : joins_) {
    if (left.Contains(j.left.relation) && right.Contains(j.right.relation)) {
      out.push_back(j);
    } else if (right.Contains(j.left.relation) &&
               left.Contains(j.right.relation)) {
      out.push_back({j.right, j.left});
    }
  }
  return out;
}

std::vector<FilterPredicate> Query::FiltersOn(int rel) const {
  std::vector<FilterPredicate> out;
  for (const auto& f : filters_) {
    if (f.col.relation == rel) out.push_back(f);
  }
  return out;
}

uint64_t Query::TemplateSignature(const Schema& /*schema*/) const {
  // Hash the sorted multiset of base-table ids and the sorted list of join
  // edges expressed in base-table/column terms (aliases erased).
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  };
  std::vector<uint64_t> parts;
  for (const auto& r : relations_) {
    parts.push_back(static_cast<uint64_t>(r.table_idx));
  }
  std::sort(parts.begin(), parts.end());
  uint64_t h = 0xCBF29CE484222325ULL;
  for (uint64_t p : parts) h = mix(h, p);

  std::vector<uint64_t> edges;
  for (const auto& j : joins_) {
    uint64_t a = (static_cast<uint64_t>(
                      relations_[j.left.relation].table_idx)
                  << 16) |
                 static_cast<uint64_t>(j.left.column);
    uint64_t b = (static_cast<uint64_t>(
                      relations_[j.right.relation].table_idx)
                  << 16) |
                 static_cast<uint64_t>(j.right.column);
    if (a > b) std::swap(a, b);
    edges.push_back((a << 24) ^ b);
  }
  std::sort(edges.begin(), edges.end());
  for (uint64_t e : edges) h = mix(h, e);
  return h;
}

}  // namespace balsa
