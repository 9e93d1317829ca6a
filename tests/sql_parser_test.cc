#include "src/sql/parser.h"

#include <gtest/gtest.h>

#include "src/optimizer/dp_optimizer.h"
#include "test_util.h"

namespace balsa {
namespace {

class SqlParserTest : public ::testing::Test {
 protected:
  SqlParserTest() : fixture_(testing::MakeStarFixture()) {}
  testing::StarFixture fixture_;
};

TEST_F(SqlParserTest, ParsesStarJoin) {
  auto q = ParseSql(fixture_.schema(),
                    "SELECT * FROM sales s, customer c, product p "
                    "WHERE s.customer_id = c.id AND s.product_id = p.id "
                    "AND c.region = 2 AND p.category < 5;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_relations(), 3);
  EXPECT_EQ(q->joins().size(), 2u);
  EXPECT_EQ(q->filters().size(), 2u);
  EXPECT_EQ(q->filters()[0].op, PredOp::kEq);
  EXPECT_EQ(q->filters()[1].op, PredOp::kLt);
  EXPECT_EQ(q->filters()[1].value, 5);
}

TEST_F(SqlParserTest, AliasDefaultsToTableName) {
  auto q = ParseSql(fixture_.schema(),
                    "SELECT * FROM sales, customer "
                    "WHERE sales.customer_id = customer.id");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->relations()[0].alias, "sales");
}

TEST_F(SqlParserTest, AsKeywordOptional) {
  auto q1 = ParseSql(fixture_.schema(),
                     "SELECT * FROM sales AS s, customer AS c "
                     "WHERE s.customer_id = c.id");
  auto q2 = ParseSql(fixture_.schema(),
                     "SELECT * FROM sales s, customer c "
                     "WHERE s.customer_id = c.id");
  ASSERT_TRUE(q1.ok() && q2.ok());
  EXPECT_EQ(q1->relations()[0].alias, q2->relations()[0].alias);
}

TEST_F(SqlParserTest, CaseInsensitiveKeywords) {
  auto q = ParseSql(fixture_.schema(),
                    "select * from SALES s where s.amount > 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->filters()[0].op, PredOp::kGt);
}

TEST_F(SqlParserTest, InList) {
  auto q = ParseSql(fixture_.schema(),
                    "SELECT * FROM customer c WHERE c.region IN (1, 3, 5)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->filters().size(), 1u);
  EXPECT_EQ(q->filters()[0].op, PredOp::kIn);
  EXPECT_EQ(q->filters()[0].in_values, (std::vector<int64_t>{1, 3, 5}));
}

TEST_F(SqlParserTest, AllComparisonOperators) {
  struct Case {
    const char* op;
    PredOp expected;
  };
  for (const Case& c : {Case{"=", PredOp::kEq}, Case{"<", PredOp::kLt},
                        Case{"<=", PredOp::kLe}, Case{">", PredOp::kGt},
                        Case{">=", PredOp::kGe}, Case{"<>", PredOp::kNe},
                        Case{"!=", PredOp::kNe}}) {
    auto q = ParseSql(fixture_.schema(),
                      std::string("SELECT * FROM sales s WHERE s.amount ") +
                          c.op + " 10");
    ASSERT_TRUE(q.ok()) << c.op << ": " << q.status().ToString();
    EXPECT_EQ(q->filters()[0].op, c.expected) << c.op;
  }
}

TEST_F(SqlParserTest, ProjectionListAccepted) {
  auto q = ParseSql(fixture_.schema(),
                    "SELECT s.id, c.region FROM sales s, customer c "
                    "WHERE s.customer_id = c.id");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

TEST_F(SqlParserTest, NegativeLiterals) {
  auto q = ParseSql(fixture_.schema(),
                    "SELECT * FROM sales s WHERE s.amount > -5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->filters()[0].value, -5);
}

TEST_F(SqlParserTest, SelfJoinViaAliases) {
  auto q = ParseSql(fixture_.schema(),
                    "SELECT * FROM sales s1, sales s2, customer c "
                    "WHERE s1.customer_id = c.id AND s2.customer_id = c.id");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_relations(), 3);
}

TEST_F(SqlParserTest, Errors) {
  // Missing SELECT.
  EXPECT_FALSE(ParseSql(fixture_.schema(), "FROM sales s").ok());
  // Unknown table.
  EXPECT_FALSE(
      ParseSql(fixture_.schema(), "SELECT * FROM bogus b").ok());
  // Unknown column.
  EXPECT_FALSE(ParseSql(fixture_.schema(),
                        "SELECT * FROM sales s WHERE s.bogus = 1").ok());
  // Disconnected join graph.
  EXPECT_FALSE(
      ParseSql(fixture_.schema(), "SELECT * FROM sales s, customer c").ok());
  // Trailing garbage.
  EXPECT_FALSE(ParseSql(fixture_.schema(),
                        "SELECT * FROM sales s WHERE s.amount > 1 garbage")
                   .ok());
  // Column-to-column with non-equality operator.
  EXPECT_FALSE(ParseSql(fixture_.schema(),
                        "SELECT * FROM sales s, customer c "
                        "WHERE s.customer_id < c.id").ok());
}

TEST_F(SqlParserTest, AtMostSixtyFourRelations) {
  // A star of `n` aliased copies of sales around s0.
  auto star = [](int n) {
    std::string from = "SELECT * FROM sales s0";
    std::string where;
    for (int r = 1; r < n; ++r) {
      std::string alias = "s" + std::to_string(r);
      from += ", sales " + alias;
      where += (r == 1 ? " WHERE " : " AND ") + alias +
               ".customer_id = s0.customer_id";
    }
    return from + where;
  };
  auto at_cap = ParseSql(fixture_.schema(), star(TableSet::kCapacity));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->num_relations(), TableSet::kCapacity);

  auto over = ParseSql(fixture_.schema(), star(TableSet::kCapacity + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.status().ToString().find("at most 64 relations"),
            std::string::npos)
      << over.status().ToString();
}

TEST_F(SqlParserTest, RoundTripsThroughOptimizer) {
  auto q = ParseSql(fixture_.schema(),
                    "SELECT * FROM sales s, customer c, product p, store st "
                    "WHERE s.customer_id = c.id AND s.product_id = p.id "
                    "AND s.store_id = st.id AND c.region = 2");
  ASSERT_TRUE(q.ok());
  q->set_id(1);
  CoutCostModel cout(fixture_.estimator, &fixture_.schema());
  DpOptimizer dp(&fixture_.schema(), &cout);
  auto plan = dp.Optimize(*q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->plan.RootTables(), q->AllTables());
}

}  // namespace
}  // namespace balsa
