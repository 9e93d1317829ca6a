#include "src/plan/query_builder.h"

namespace balsa {

QueryBuilder& QueryBuilder::From(const std::string& table,
                                 const std::string& alias) {
  if (static_cast<int>(relations_.size()) >= TableSet::kCapacity) {
    if (deferred_error_.ok()) {
      deferred_error_ =
          Status::InvalidArgument("a query joins at most 64 relations");
    }
    return *this;
  }
  int idx = schema_->TableIndex(table);
  if (idx < 0) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::NotFound("no such table: " + table);
    }
    return *this;
  }
  QueryRelation rel;
  rel.table_idx = idx;
  rel.alias = alias.empty() ? table : alias;
  for (const auto& existing : relations_) {
    if (existing.alias == rel.alias) {
      if (deferred_error_.ok()) {
        deferred_error_ = Status::AlreadyExists("duplicate alias: " + rel.alias);
      }
      return *this;
    }
  }
  relations_.push_back(std::move(rel));
  return *this;
}

StatusOr<ColumnRef> QueryBuilder::Resolve(const std::string& dotted) {
  size_t dot = dotted.find('.');
  if (dot == std::string::npos) {
    return Status::InvalidArgument("expected alias.column, got: " + dotted);
  }
  std::string alias = dotted.substr(0, dot);
  std::string column = dotted.substr(dot + 1);
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].alias != alias) continue;
    const TableDef& table = schema_->table(relations_[i].table_idx);
    int col = table.ColumnIndex(column);
    if (col < 0) {
      return Status::NotFound("no column " + column + " in " + table.name);
    }
    ColumnRef ref;
    ref.relation = static_cast<int>(i);
    ref.column = col;
    return ref;
  }
  return Status::NotFound("no relation with alias " + alias);
}

QueryBuilder& QueryBuilder::JoinEq(const std::string& left,
                                   const std::string& right) {
  auto l = Resolve(left);
  auto r = Resolve(right);
  if (!l.ok() || !r.ok()) {
    if (deferred_error_.ok()) {
      deferred_error_ = l.ok() ? r.status() : l.status();
    }
    return *this;
  }
  JoinPredicate j;
  j.left = *l;
  j.right = *r;
  joins_.push_back(j);
  return *this;
}

QueryBuilder& QueryBuilder::Filter(const std::string& col, PredOp op,
                                   int64_t value) {
  auto ref = Resolve(col);
  if (!ref.ok()) {
    if (deferred_error_.ok()) deferred_error_ = ref.status();
    return *this;
  }
  FilterPredicate f;
  f.col = *ref;
  f.op = op;
  f.value = value;
  filters_.push_back(std::move(f));
  return *this;
}

QueryBuilder& QueryBuilder::FilterIn(const std::string& col,
                                     std::vector<int64_t> values) {
  auto ref = Resolve(col);
  if (!ref.ok()) {
    if (deferred_error_.ok()) deferred_error_ = ref.status();
    return *this;
  }
  FilterPredicate f;
  f.col = *ref;
  f.op = PredOp::kIn;
  f.in_values = std::move(values);
  filters_.push_back(std::move(f));
  return *this;
}

StatusOr<Query> QueryBuilder::Build() {
  BALSA_RETURN_IF_ERROR(deferred_error_);
  if (relations_.empty()) {
    return Status::InvalidArgument("query " + name_ + " has no relations");
  }
  Query query(name_, std::move(relations_), std::move(joins_),
              std::move(filters_));
  if (query.num_relations() > 1 && !query.IsConnected(query.AllTables())) {
    return Status::InvalidArgument("query " + name_ +
                                   " has a disconnected join graph");
  }
  return query;
}

}  // namespace balsa
