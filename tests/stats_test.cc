#include "src/stats/cardinality_estimator.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/stats/table_stats.h"
#include "test_util.h"

namespace balsa {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  StatsTest()
      : fixture_(testing::MakeStarFixture()),
        executor_(fixture_.db.get()) {}

  // True filtered row count via the executor.
  double TrueScanRows(const Query& q, int rel) {
    auto scan = executor_.Scan(q, rel);
    return static_cast<double>(scan->NumRows());
  }

  Query OneFilterQuery(const std::string& table, const std::string& col,
                       PredOp op, int64_t value, int id) {
    QueryBuilder b(&fixture_.schema(), "f");
    auto q = b.From(table, "x").Filter("x." + col, op, value).Build();
    BALSA_CHECK(q.ok(), "build");
    Query query = std::move(q).value();
    query.set_id(id);
    return query;
  }

  testing::StarFixture fixture_;
  Executor executor_;
};

TEST_F(StatsTest, AnalyzePopulatesAllTables) {
  const auto& stats = fixture_.estimator->stats();
  ASSERT_EQ(stats.size(),
            static_cast<size_t>(fixture_.schema().num_tables()));
  for (int t = 0; t < fixture_.schema().num_tables(); ++t) {
    EXPECT_EQ(stats[t].row_count, fixture_.db->row_count(t));
    EXPECT_EQ(stats[t].columns.size(),
              fixture_.schema().table(t).columns.size());
  }
}

TEST_F(StatsTest, AnalyzeStampsStatsVersion) {
  // Default ANALYZE produces generation-0 statistics.
  for (const TableStats& ts : fixture_.estimator->stats()) {
    EXPECT_EQ(ts.stats_version, 0);
  }
  // A re-ANALYZE after a stats bump stamps the new generation, which is
  // what lets the serving plan cache detect plans built on stale estimates.
  auto stats = Analyze(*fixture_.db, /*stats_version=*/3);
  ASSERT_TRUE(stats.ok());
  for (const TableStats& ts : *stats) {
    EXPECT_EQ(ts.stats_version, 3);
  }
}

TEST_F(StatsTest, DistinctCountOfPrimaryKeyIsRowCount) {
  int cust = fixture_.schema().TableIndex("customer");
  const ColumnStats& pk = fixture_.estimator->stats()[cust].columns[0];
  EXPECT_EQ(pk.num_distinct, fixture_.db->row_count(cust));
}

TEST_F(StatsTest, EqualitySelectivityNearTruthOnMcv) {
  // Region 0 is the most common value under Zipf skew -> it is in the MCV
  // list, so the estimate should be nearly exact.
  Query q = OneFilterQuery("customer", "region", PredOp::kEq, 0, 900);
  double est = fixture_.estimator->EstimateScanRows(q, 0);
  double truth = TrueScanRows(q, 0);
  EXPECT_NEAR(est, truth, std::max(2.0, truth * 0.1));
}

TEST_F(StatsTest, RangeSelectivityReasonable) {
  Query q = OneFilterQuery("sales", "amount", PredOp::kLt, 50, 901);
  double est = fixture_.estimator->EstimateScanRows(q, 0);
  double truth = TrueScanRows(q, 0);
  // Histogram estimate within 2x of truth.
  EXPECT_GT(est, truth * 0.5);
  EXPECT_LT(est, truth * 2.0);
}

TEST_F(StatsTest, InSelectivityIsSumOfEqs) {
  QueryBuilder b(&fixture_.schema(), "in");
  auto q = b.From("customer", "c").FilterIn("c.region", {0, 1, 2}).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(902);
  double in_est = fixture_.estimator->EstimateScanRows(*q, 0);
  double sum = 0;
  for (int64_t v : {0, 1, 2}) {
    Query eq = OneFilterQuery("customer", "region", PredOp::kEq, v,
                              903 + static_cast<int>(v));
    sum += fixture_.estimator->EstimateScanRows(eq, 0);
  }
  EXPECT_NEAR(in_est, sum, sum * 0.05 + 1);
}

TEST_F(StatsTest, SelectivityIsOneWithoutFilters) {
  Query star = testing::MakeStarQuery(fixture_.schema(), 905);
  EXPECT_DOUBLE_EQ(fixture_.estimator->EstimateSelectivity(star, 0), 1.0);
  EXPECT_LT(fixture_.estimator->EstimateSelectivity(star, 1), 1.0);
}

TEST_F(StatsTest, FkJoinEstimateNearTruthWithoutFilters) {
  // sales JOIN customer on FK is ~ |sales| (every FK matches a PK).
  QueryBuilder b(&fixture_.schema(), "fk");
  auto q = b.From("sales", "s").From("customer", "c")
               .JoinEq("s.customer_id", "c.id")
               .Build();
  ASSERT_TRUE(q.ok());
  q->set_id(906);
  double est =
      fixture_.estimator->EstimateJoinRows(*q, TableSet::FirstN(2));
  Executor ex(fixture_.db.get());
  auto s = ex.Scan(*q, 0);
  auto c = ex.Scan(*q, 1);
  auto j = ex.Join(*q, *s, *c);
  double truth = static_cast<double>(j->NumRows());
  EXPECT_GT(est, truth * 0.3);
  EXPECT_LT(est, truth * 3.0);
}

TEST_F(StatsTest, SkewedJoinEstimatesErr) {
  // With a filtered dimension and Zipf-skewed FK fan-in, the independence
  // assumption must show error — that inaccuracy is what the paper's
  // simulator tolerates (§3.3). We only require the estimate to be finite
  // and positive, and record that it deviates from truth.
  Query star = testing::MakeStarQuery(fixture_.schema(), 907);
  double est = fixture_.estimator->EstimateJoinRows(star, star.AllTables());
  EXPECT_GT(est, 0);
  EXPECT_TRUE(std::isfinite(est));
}

TEST_F(StatsTest, NoisyEstimatorDeterministicAndBounded) {
  auto noisy = std::make_shared<NoisyCardinalityEstimator>(
      fixture_.estimator, /*median_noise_factor=*/5.0);
  Query star = testing::MakeStarQuery(fixture_.schema(), 908);
  double base = fixture_.estimator->EstimateJoinRows(star, star.AllTables());
  double n1 = noisy->EstimateJoinRows(star, star.AllTables());
  double n2 = noisy->EstimateJoinRows(star, star.AllTables());
  EXPECT_EQ(n1, n2);  // deterministic per (query, set)
  EXPECT_NE(n1, base);
  EXPECT_GT(n1, 0);
}

}  // namespace
}  // namespace balsa
