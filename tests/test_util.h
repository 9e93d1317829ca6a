// Shared fixtures: a small 4-table star schema with generated data, plus
// helpers to build queries against it. Kept deliberately tiny so unit tests
// run in milliseconds; integration tests that need the full JOB-like
// environment use MakeEnv with a small data_scale instead.
#pragma once

#include <memory>
#include <vector>

#include "src/catalog/schema.h"
#include "src/model/featurizer.h"
#include "src/model/value_network.h"
#include "src/plan/query_builder.h"
#include "src/stats/card_oracle.h"
#include "src/stats/cardinality_estimator.h"
#include "src/stats/table_stats.h"
#include "src/storage/column_store.h"
#include "src/storage/data_generator.h"
#include "src/util/logging.h"

namespace balsa::testing {

/// Star schema: fact "sales" -> dims "customer", "product", "store".
inline Schema MakeStarSchema(int64_t fact_rows = 4000) {
  Schema schema;
  auto pk = [](const char* name) {
    ColumnDef c;
    c.name = name;
    c.kind = ColumnKind::kPrimaryKey;
    return c;
  };
  auto fk = [](const char* name, const char* ref, double skew) {
    ColumnDef c;
    c.name = name;
    c.kind = ColumnKind::kForeignKey;
    c.ref_table = ref;
    c.ref_column = "id";
    c.zipf_skew = skew;
    return c;
  };
  auto attr = [](const char* name, int64_t domain, double skew) {
    ColumnDef c;
    c.name = name;
    c.kind = ColumnKind::kAttribute;
    c.domain_size = domain;
    c.zipf_skew = skew;
    return c;
  };
  BALSA_CHECK(schema.AddTable({"customer", 400,
                               {pk("id"), attr("region", 10, 0.8),
                                attr("segment", 4, 0.0)}}).ok(),
              "add customer");
  BALSA_CHECK(schema.AddTable({"product", 200,
                               {pk("id"), attr("category", 8, 0.5)}}).ok(),
              "add product");
  BALSA_CHECK(schema.AddTable({"store", 50, {pk("id"), attr("state", 5, 0.0)}})
                  .ok(),
              "add store");
  BALSA_CHECK(schema.AddTable({"sales", fact_rows,
                               {pk("id"), fk("customer_id", "customer", 0.7),
                                fk("product_id", "product", 0.9),
                                fk("store_id", "store", 0.3),
                                attr("amount", 100, 0.4)}}).ok(),
              "add sales");
  BALSA_CHECK(
      schema.AddForeignKey("sales", "customer_id", "customer", "id").ok(),
      "fk customer");
  BALSA_CHECK(
      schema.AddForeignKey("sales", "product_id", "product", "id").ok(),
      "fk product");
  BALSA_CHECK(schema.AddForeignKey("sales", "store_id", "store", "id").ok(),
              "fk store");
  return schema;
}

/// A populated star database with stats, oracle, and estimator.
struct StarFixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<CardOracle> oracle;
  std::shared_ptr<CardinalityEstimator> estimator;

  const Schema& schema() const { return db->schema(); }
};

inline StarFixture MakeStarFixture(uint64_t seed = 42,
                                   int64_t fact_rows = 4000) {
  StarFixture f;
  f.db = std::make_unique<Database>(MakeStarSchema(fact_rows));
  DataGeneratorOptions gen;
  gen.seed = seed;
  BALSA_CHECK(GenerateData(f.db.get(), gen).ok(), "generate");
  f.oracle = std::make_unique<CardOracle>(f.db.get());
  auto stats = Analyze(*f.db);
  BALSA_CHECK(stats.ok(), "analyze");
  f.estimator = std::make_shared<CardinalityEstimator>(
      &f.db->schema(), std::move(stats).value());
  return f;
}

/// The canonical 4-way star join with a couple of filters.
inline Query MakeStarQuery(const Schema& schema, int id = 0) {
  QueryBuilder builder(&schema, "star4");
  auto query =
      builder.From("sales", "s")
          .From("customer", "c")
          .From("product", "p")
          .From("store", "st")
          .JoinEq("s.customer_id", "c.id")
          .JoinEq("s.product_id", "p.id")
          .JoinEq("s.store_id", "st.id")
          .Filter("c.region", PredOp::kEq, 2)
          .Filter("p.category", PredOp::kLt, 5)
          .Build();
  BALSA_CHECK(query.ok(), "star query");
  Query q = std::move(query).value();
  q.set_id(id);
  return q;
}

/// A subtree's embedding row (ValueNetwork::row_layout()) and score, kept
/// on its own rather than in a search's table.
struct Embedding {
  std::vector<float> row;
  double score = 0;
};

/// ValueNetwork::QueryTerm of `query_feat`.
inline nn::Vec QueryTermOf(const ValueNetwork& net, const nn::Vec& query_feat) {
  nn::Vec term(static_cast<size_t>(net.query_term_dim()));
  net.QueryTerm(query_feat.data(), term.data());
  return term;
}

/// Embeds the subtree of `plan` rooted at `idx` (-1 = root) the way beam
/// search does: bottom-up, each node scored by ValueNetwork::ScoreRoots from
/// its own features plus its children's cached terms. The result carries its
/// terms for both sides, so it can be any root job's child.
inline Embedding EmbedSubtree(const ValueNetwork& net,
                              const Featurizer& featurizer,
                              const Query& query, const nn::Vec& query_feat,
                              const Plan& plan, int idx = -1) {
  const PlanNode& node = plan.node(idx < 0 ? plan.root() : idx);
  const nn::Vec term = QueryTermOf(net, query_feat);
  const nn::Vec feat = featurizer.NodeFeatures(query, node);
  Embedding out, left, right;
  out.row.assign(static_cast<size_t>(net.row_layout().stride), 0.f);
  RootJob job{term.data(), feat.data(), nullptr, nullptr, out.row.data(),
              &out.score};
  if (node.is_join) {
    left = EmbedSubtree(net, featurizer, query, query_feat, plan, node.left);
    right = EmbedSubtree(net, featurizer, query, query_feat, plan, node.right);
    job.left = left.row.data();
    job.right = right.row.data();
  }
  net.ScoreRoots({job});
  net.ChildTerms({{term.data(), feat.data(), out.row.data(), 0},
                  {term.data(), feat.data(), out.row.data(), 1}});
  return out;
}

/// True if two training points have equal query features, plan features,
/// child indices and label.
inline bool SamePoint(const TrainingPoint& a, const TrainingPoint& b) {
  return a.query == b.query && a.plan.features == b.plan.features &&
         a.plan.left == b.plan.left && a.plan.right == b.plan.right &&
         a.label == b.label;
}

}  // namespace balsa::testing
