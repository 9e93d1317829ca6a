#include "src/plan/query_graph.h"

#include <gtest/gtest.h>

#include "src/plan/query_builder.h"
#include "src/util/rng.h"
#include "test_util.h"

namespace balsa {
namespace {

class QueryGraphTest : public ::testing::Test {
 protected:
  QueryGraphTest() : fixture_(testing::MakeStarFixture()) {
    query_ = testing::MakeStarQuery(fixture_.schema());
  }
  testing::StarFixture fixture_;
  Query query_;
};

TEST_F(QueryGraphTest, BasicAccessors) {
  EXPECT_EQ(query_.num_relations(), 4);
  EXPECT_EQ(query_.joins().size(), 3u);
  EXPECT_EQ(query_.filters().size(), 2u);
  EXPECT_EQ(query_.AllTables(), TableSet::FirstN(4));
}

TEST_F(QueryGraphTest, NeighborsOfFactIsAllDims) {
  // Relation 0 is "sales": joined to all three dimensions.
  EXPECT_EQ(query_.Neighbors(0), TableSet::Single(1).With(2).With(3));
  // A dimension only neighbors the fact.
  EXPECT_EQ(query_.Neighbors(1), TableSet::Single(0));
}

TEST_F(QueryGraphTest, NeighborsOfSetExcludesSet) {
  TableSet set = TableSet::Single(0).With(1);
  EXPECT_EQ(query_.NeighborsOf(set), TableSet::Single(2).With(3));
}

TEST_F(QueryGraphTest, Connectivity) {
  EXPECT_TRUE(query_.IsConnected(query_.AllTables()));
  EXPECT_TRUE(query_.IsConnected(TableSet::Single(0).With(2)));
  // Two dimensions without the fact are not connected.
  EXPECT_FALSE(query_.IsConnected(TableSet::Single(1).With(2)));
}

TEST_F(QueryGraphTest, CanJoin) {
  EXPECT_TRUE(query_.CanJoin(TableSet::Single(0), TableSet::Single(1)));
  EXPECT_FALSE(query_.CanJoin(TableSet::Single(1), TableSet::Single(2)));
  EXPECT_TRUE(
      query_.CanJoin(TableSet::Single(0).With(1), TableSet::Single(3)));
}

TEST(QueryGraphPropertyTest, CanJoinMatchesAPredicateScan) {
  // CanJoin reads the neighbor masks; the reference scans every predicate
  // for one that crosses the (left, right) cut.
  auto scan = [](const Query& q, TableSet left, TableSet right) {
    if (left.Intersects(right)) return false;
    for (const JoinPredicate& j : q.joins()) {
      int a = j.left.relation, b = j.right.relation;
      if ((left.Contains(a) && right.Contains(b)) ||
          (right.Contains(a) && left.Contains(b))) {
        return true;
      }
    }
    return false;
  };
  Rng rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 20));
    std::vector<QueryRelation> relations;
    for (int r = 0; r < n; ++r) {
      // Few distinct tables, so aliased self-joins are common.
      relations.push_back(
          {static_cast<int>(rng.Uniform(3)), "r" + std::to_string(r)});
    }
    std::vector<JoinPredicate> joins;
    const int num_joins = static_cast<int>(rng.UniformInt(0, 2 * n));
    for (int k = 0; k < num_joins; ++k) {
      // Endpoints may coincide: a predicate between two columns of one
      // relation crosses no cut.
      int a = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      int b = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      joins.push_back({{a, 0}, {b, 1}});
    }
    Query q("random", std::move(relations), std::move(joins), {});
    const uint64_t all = q.AllTables().bits();
    for (int cut = 0; cut < 50; ++cut) {
      TableSet left(rng.Next() & all);
      // Half the cuts are disjoint by construction, half may overlap.
      TableSet right(rng.Next() & all);
      if (rng.Bernoulli(0.5)) right = right.Minus(left);
      EXPECT_EQ(q.CanJoin(left, right), scan(q, left, right))
          << "trial " << trial << " left " << left.ToString() << " right "
          << right.ToString();
    }
  }
}

TEST_F(QueryGraphTest, JoinsBetweenAreOriented) {
  auto joins = query_.JoinsBetween(TableSet::Single(1), TableSet::Single(0));
  ASSERT_EQ(joins.size(), 1u);
  // .left must lie in the left set (relation 1 = customer).
  EXPECT_EQ(joins[0].left.relation, 1);
  EXPECT_EQ(joins[0].right.relation, 0);
}

TEST_F(QueryGraphTest, FiltersOn) {
  EXPECT_EQ(query_.FiltersOn(1).size(), 1u);  // customer.region
  EXPECT_EQ(query_.FiltersOn(2).size(), 1u);  // product.category
  EXPECT_TRUE(query_.FiltersOn(0).empty());
}

TEST_F(QueryGraphTest, TemplateSignatureGroupsVariants) {
  // Same joins, different filter constants -> same signature.
  QueryBuilder b1(&fixture_.schema(), "v1");
  auto v1 = b1.From("sales", "s").From("customer", "c")
                .JoinEq("s.customer_id", "c.id")
                .Filter("c.region", PredOp::kEq, 1)
                .Build();
  QueryBuilder b2(&fixture_.schema(), "v2");
  auto v2 = b2.From("sales", "s").From("customer", "c")
                .JoinEq("s.customer_id", "c.id")
                .Filter("c.region", PredOp::kEq, 7)
                .Build();
  ASSERT_TRUE(v1.ok() && v2.ok());
  EXPECT_EQ(v1->TemplateSignature(fixture_.schema()),
            v2->TemplateSignature(fixture_.schema()));
  // A different join graph -> different signature.
  EXPECT_NE(v1->TemplateSignature(fixture_.schema()),
            query_.TemplateSignature(fixture_.schema()));
}

TEST(QueryBuilderTest, ResolvesAliases) {
  auto fixture = testing::MakeStarFixture();
  QueryBuilder b(&fixture.schema(), "q");
  auto q = b.From("sales", "s1").From("sales", "s2").From("customer", "c")
               .JoinEq("s1.customer_id", "c.id")
               .JoinEq("s2.customer_id", "c.id")
               .Build();
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Self-join: two distinct relations referencing the same table.
  EXPECT_EQ(q->relations()[0].table_idx, q->relations()[1].table_idx);
}

TEST(QueryBuilderTest, RejectsUnknownTable) {
  auto fixture = testing::MakeStarFixture();
  QueryBuilder b(&fixture.schema(), "q");
  auto q = b.From("nonexistent", "x").Build();
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST(QueryBuilderTest, RejectsDuplicateAlias) {
  auto fixture = testing::MakeStarFixture();
  QueryBuilder b(&fixture.schema(), "q");
  auto q = b.From("sales", "s").From("customer", "s").Build();
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kAlreadyExists);
}

TEST(QueryBuilderTest, RejectsUnknownColumn) {
  auto fixture = testing::MakeStarFixture();
  QueryBuilder b(&fixture.schema(), "q");
  auto q = b.From("sales", "s").From("customer", "c")
               .JoinEq("s.bogus", "c.id")
               .Build();
  EXPECT_FALSE(q.ok());
}

TEST(QueryBuilderTest, RejectsDisconnectedJoinGraph) {
  auto fixture = testing::MakeStarFixture();
  QueryBuilder b(&fixture.schema(), "q");
  auto q = b.From("sales", "s").From("customer", "c").Build();  // no join
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace balsa
