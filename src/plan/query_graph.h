// Query representation for select-project-join blocks: relations (with
// aliases), equality join predicates, and base-table filter predicates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/catalog/schema.h"
#include "src/util/table_set.h"

namespace balsa {

/// A column of one of the query's relations. `relation` indexes the query's
/// relation list (not the schema), so self-joins via aliases are supported.
struct ColumnRef {
  int relation = -1;
  int column = -1;

  bool operator==(const ColumnRef& o) const {
    return relation == o.relation && column == o.column;
  }
};

enum class PredOp { kEq, kNe, kLt, kLe, kGt, kGe, kIn };

/// A base-table predicate `col op value` (or `col IN (values)`).
struct FilterPredicate {
  ColumnRef col;
  PredOp op = PredOp::kEq;
  int64_t value = 0;
  std::vector<int64_t> in_values;  // used when op == kIn
};

/// An equality join predicate `left = right` across two relations.
struct JoinPredicate {
  ColumnRef left;
  ColumnRef right;
};

/// One occurrence of a base table in the FROM list.
struct QueryRelation {
  int table_idx = -1;    // index into the schema
  std::string alias;
};

/// An SPJ query over a fixed schema. Immutable once built.
class Query {
 public:
  Query() = default;
  Query(std::string name, std::vector<QueryRelation> relations,
        std::vector<JoinPredicate> joins,
        std::vector<FilterPredicate> filters);

  const std::string& name() const { return name_; }

  /// Workload-assigned id; used as a cache key by the oracle and engines.
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }
  int num_relations() const { return static_cast<int>(relations_.size()); }
  const std::vector<QueryRelation>& relations() const { return relations_; }
  const std::vector<JoinPredicate>& joins() const { return joins_; }
  const std::vector<FilterPredicate>& filters() const { return filters_; }

  /// The set {0..num_relations-1}.
  TableSet AllTables() const { return TableSet::FirstN(num_relations()); }

  /// Relations adjacent to `rel` in the join graph.
  TableSet Neighbors(int rel) const { return neighbors_[rel]; }

  /// Relations adjacent to any member of `set` (excluding the set itself).
  TableSet NeighborsOf(TableSet set) const;

  /// True if the induced join subgraph on `set` is connected.
  bool IsConnected(TableSet set) const;

  /// True if some join predicate crosses the (left, right) cut. Reads the
  /// neighbor masks, so `left` must hold only this query's relations.
  bool CanJoin(TableSet left, TableSet right) const;

  /// Join predicates with one side in `left` and the other in `right`,
  /// returned oriented so .left is in `left`.
  std::vector<JoinPredicate> JoinsBetween(TableSet left, TableSet right) const;

  /// Filters on relation `rel`.
  std::vector<FilterPredicate> FiltersOn(int rel) const;

  /// A stable signature of the join template (table multiset + join edges),
  /// used to group queries into families.
  uint64_t TemplateSignature(const Schema& schema) const;

 private:
  std::string name_;
  int id_ = -1;
  std::vector<QueryRelation> relations_;
  std::vector<JoinPredicate> joins_;
  std::vector<FilterPredicate> filters_;
  std::vector<TableSet> neighbors_;
};

}  // namespace balsa
