#include "src/cost/cost_model.h"

#include <gtest/gtest.h>

#include "src/workloads/imdb_like.h"
#include "src/workloads/job_workload.h"
#include "test_util.h"

namespace balsa {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        cout_(fixture_.estimator, &fixture_.schema()),
        cmm_(fixture_.estimator, &fixture_.schema()),
        engine_(fixture_.estimator, &fixture_.schema(), EngineCostParams{}) {}

  Plan TwoWay(JoinOp op) {
    Plan p;
    int s = p.AddScan(0, ScanOp::kSeqScan);
    int c = p.AddScan(1, ScanOp::kSeqScan);
    p.AddJoin(s, c, op);
    return p;
  }

  testing::StarFixture fixture_;
  Query query_;
  CoutCostModel cout_;
  CmmCostModel cmm_;
  EngineCostModel engine_;
};

TEST_F(CostModelTest, CoutIsSumOfEstimatedSizes) {
  Plan p = TwoWay(JoinOp::kHashJoin);
  double est_s = fixture_.estimator->EstimateScanRows(query_, 0);
  double est_c = fixture_.estimator->EstimateScanRows(query_, 1);
  double est_j =
      fixture_.estimator->EstimateJoinRows(query_, TableSet::FirstN(2));
  EXPECT_NEAR(cout_.PlanCost(query_, p), est_s + est_c + est_j, 1e-6);
}

TEST_F(CostModelTest, CoutIgnoresPhysicalOperators) {
  // The minimal simulator is logical-only (§3.1): all operators cost alike.
  double hash = cout_.PlanCost(query_, TwoWay(JoinOp::kHashJoin));
  double merge = cout_.PlanCost(query_, TwoWay(JoinOp::kMergeJoin));
  double nl = cout_.PlanCost(query_, TwoWay(JoinOp::kNLJoin));
  EXPECT_DOUBLE_EQ(hash, merge);
  EXPECT_DOUBLE_EQ(hash, nl);
}

TEST_F(CostModelTest, CoutPrefersSelectiveFirstJoins) {
  // Joining the filtered dimension first beats joining the unfiltered one
  // when the filter is selective (fewer intermediate tuples).
  Plan filtered_first;
  {
    int s = filtered_first.AddScan(0, ScanOp::kSeqScan);
    int c = filtered_first.AddScan(1, ScanOp::kSeqScan);  // region filter
    int sc = filtered_first.AddJoin(s, c, JoinOp::kHashJoin);
    int st = filtered_first.AddScan(3, ScanOp::kSeqScan);  // no filter
    filtered_first.AddJoin(sc, st, JoinOp::kHashJoin);
  }
  Plan unfiltered_first;
  {
    int s = unfiltered_first.AddScan(0, ScanOp::kSeqScan);
    int st = unfiltered_first.AddScan(3, ScanOp::kSeqScan);
    int sst = unfiltered_first.AddJoin(s, st, JoinOp::kHashJoin);
    int c = unfiltered_first.AddScan(1, ScanOp::kSeqScan);
    unfiltered_first.AddJoin(sst, c, JoinOp::kHashJoin);
  }
  EXPECT_LT(cout_.PlanCost(query_, filtered_first),
            cout_.PlanCost(query_, unfiltered_first));
}

TEST_F(CostModelTest, CmmDiscountsScans) {
  Plan p = TwoWay(JoinOp::kHashJoin);
  EXPECT_LT(cmm_.PlanCost(query_, p), cout_.PlanCost(query_, p));
}

TEST_F(CostModelTest, EngineModelDistinguishesOperators) {
  // Unlike C_out, the expert model prices physical operators differently.
  double hash = engine_.PlanCost(query_, TwoWay(JoinOp::kHashJoin));
  double merge = engine_.PlanCost(query_, TwoWay(JoinOp::kMergeJoin));
  double nl = engine_.PlanCost(query_, TwoWay(JoinOp::kNLJoin));
  EXPECT_NE(hash, merge);
  EXPECT_NE(hash, nl);
  EXPECT_NE(merge, nl);
}

TEST_F(CostModelTest, OperatorCostFormulas) {
  EngineCostParams params;
  OperatorCostInput scan;
  scan.is_join = false;
  scan.scan_op = ScanOp::kSeqScan;
  scan.out_rows = 100;
  scan.base_rows = 1000;
  double seq = OperatorCost(params, scan);
  EXPECT_NEAR(seq, 1000 * params.seq_scan_per_row, 1e-9);

  scan.scan_op = ScanOp::kIndexScan;
  scan.index_available = true;
  double idx = OperatorCost(params, scan);
  EXPECT_NEAR(idx, params.index_scan_overhead + 100 * params.index_scan_per_row,
              1e-9);
  // With a selective predicate the index scan wins; without, seq wins.
  EXPECT_LT(idx, seq);

  OperatorCostInput join;
  join.is_join = true;
  join.join_op = JoinOp::kHashJoin;
  join.left_rows = 500;
  join.right_rows = 2000;
  join.out_rows = 800;
  double hash = OperatorCost(params, join);
  EXPECT_GT(hash, 0);

  join.join_op = JoinOp::kNLJoin;
  double nl = OperatorCost(params, join);
  EXPECT_NEAR(nl, 500 * 2000 * params.nl_per_row_pair +
                      800 * params.output_per_row, 1e-6);
}

TEST_F(CostModelTest, IndexNLValidRequiresIndexedKeyJoin) {
  // customer.id (PK) is indexed: sales -> customer index NL is valid.
  EXPECT_TRUE(
      IndexNLValid(fixture_.schema(), query_, TableSet::Single(0), 1));
  // The outer side must actually join with the inner relation.
  EXPECT_FALSE(
      IndexNLValid(fixture_.schema(), query_, TableSet::Single(1), 2));
}

// Beam search asks IndexNLValid through partner masks built once per
// search; the two must agree on every outer side a query can have.
TEST(IndexNLPartnersTest, AgreesWithIndexNLValidOnEveryOuterSubset) {
  StatusOr<Schema> schema = BuildImdbLikeSchema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  StatusOr<Workload> workload = GenerateJobWorkload(*schema);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  int queries = 0;
  int64_t valid = 0, invalid = 0;
  for (const Query& query : workload->queries()) {
    const int n = query.num_relations();
    if (n > 10) continue;
    ++queries;
    for (int rel = 0; rel < n; ++rel) {
      const TableSet partners = IndexNLPartners(*schema, query, rel);
      for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
        const TableSet outer(bits);
        const bool want = IndexNLValid(*schema, query, outer, rel);
        ASSERT_EQ(outer.Intersects(partners), want)
            << query.name() << " rel " << rel << " outer "
            << outer.ToString();
        ++(want ? valid : invalid);
      }
    }
  }
  EXPECT_GT(queries, 50);
  EXPECT_GT(valid, 0);
  EXPECT_GT(invalid, 0);
}

TEST_F(CostModelTest, IndexScanEffectiveOnlyWithIndexableFilter) {
  // region is an attribute without an index -> not effective.
  // (Effectiveness requires an equality/IN filter on an indexed column.)
  bool any = IndexScanEffective(fixture_.schema(), query_, 1);
  // customer's filter is on "region"; only PK/FK columns are indexed.
  EXPECT_FALSE(any);
}

TEST_F(CostModelTest, ExpertModelSkipsInnerScanUnderIndexNL) {
  EXPECT_FALSE(engine_.ChargeInnerScanUnderIndexNL());
  EXPECT_TRUE(cout_.ChargeInnerScanUnderIndexNL());
}

}  // namespace
}  // namespace balsa
