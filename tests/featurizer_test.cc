#include "src/model/featurizer.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace balsa {
namespace {

class FeaturizerTest : public ::testing::Test {
 protected:
  FeaturizerTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        featurizer_(&fixture_.schema(), fixture_.estimator.get()) {}

  testing::StarFixture fixture_;
  Query query_;
  Featurizer featurizer_;
};

TEST_F(FeaturizerTest, Dimensions) {
  EXPECT_EQ(featurizer_.query_dim(), fixture_.schema().num_tables());
  EXPECT_EQ(featurizer_.node_dim(),
            kNumJoinOps + kNumScanOps + fixture_.schema().num_tables());
}

TEST_F(FeaturizerTest, QueryFeaturesHoldSelectivities) {
  nn::Vec feat = featurizer_.QueryFeatures(query_);
  ASSERT_EQ(feat.size(), static_cast<size_t>(featurizer_.query_dim()));
  int sales = fixture_.schema().TableIndex("sales");
  int customer = fixture_.schema().TableIndex("customer");
  // Unfiltered fact: selectivity 1. Filtered dim: in (0, 1).
  EXPECT_FLOAT_EQ(feat[sales], 1.0f);
  EXPECT_GT(feat[customer], 0.f);
  EXPECT_LT(feat[customer], 1.f);
}

TEST_F(FeaturizerTest, ScopedQueryFeaturesZeroAbsentTables) {
  nn::Vec feat =
      featurizer_.QueryFeatures(query_, TableSet::Single(0).With(1));
  int product = fixture_.schema().TableIndex("product");
  int store = fixture_.schema().TableIndex("store");
  EXPECT_FLOAT_EQ(feat[product], 0.f);
  EXPECT_FLOAT_EQ(feat[store], 0.f);
  int sales = fixture_.schema().TableIndex("sales");
  EXPECT_GT(feat[sales], 0.f);
}

TEST_F(FeaturizerTest, PlanTreeStructure) {
  Plan p;
  int s = p.AddScan(0, ScanOp::kSeqScan);
  int c = p.AddScan(1, ScanOp::kIndexScan);
  p.AddJoin(s, c, JoinOp::kMergeJoin);

  nn::TreeSample t = featurizer_.PlanFeatures(query_, p);
  ASSERT_EQ(t.features.size(), 3u);
  // Preorder: root first.
  EXPECT_EQ(t.left[0], 1);
  EXPECT_EQ(t.right[0], 2);
  EXPECT_EQ(t.left[1], -1);

  // Root carries the merge-join one-hot.
  EXPECT_FLOAT_EQ(t.features[0][static_cast<int>(JoinOp::kMergeJoin)], 1.f);
  // Left child is a seq scan of sales.
  EXPECT_FLOAT_EQ(
      t.features[1][kNumJoinOps + static_cast<int>(ScanOp::kSeqScan)], 1.f);
  int sales = fixture_.schema().TableIndex("sales");
  EXPECT_FLOAT_EQ(t.features[1][kNumJoinOps + kNumScanOps + sales], 1.f);
  // Right child: index scan of customer.
  EXPECT_FLOAT_EQ(
      t.features[2][kNumJoinOps + static_cast<int>(ScanOp::kIndexScan)], 1.f);

  // Root's table indicator covers both tables.
  int customer = fixture_.schema().TableIndex("customer");
  EXPECT_FLOAT_EQ(t.features[0][kNumJoinOps + kNumScanOps + sales], 1.f);
  EXPECT_FLOAT_EQ(t.features[0][kNumJoinOps + kNumScanOps + customer], 1.f);
}

TEST_F(FeaturizerTest, SubtreeFeaturesMatchExtractedPlan) {
  Plan p;
  int s = p.AddScan(0, ScanOp::kSeqScan);
  int c = p.AddScan(1, ScanOp::kSeqScan);
  int sc = p.AddJoin(s, c, JoinOp::kHashJoin);
  int st = p.AddScan(3, ScanOp::kSeqScan);
  p.AddJoin(sc, st, JoinOp::kHashJoin);

  nn::TreeSample sub = featurizer_.PlanFeatures(query_, p, sc);
  Plan extracted = ExtractSubtree(p, sc);
  nn::TreeSample direct = featurizer_.PlanFeatures(query_, extracted);
  ASSERT_EQ(sub.features.size(), direct.features.size());
  for (size_t i = 0; i < sub.features.size(); ++i) {
    EXPECT_EQ(sub.features[i], direct.features[i]) << "node " << i;
    EXPECT_EQ(sub.left[i], direct.left[i]);
    EXPECT_EQ(sub.right[i], direct.right[i]);
  }
}

TEST_F(FeaturizerTest, SubtreeFeaturesEqualPerNodePlanFeatures) {
  // A bushy plan, (s c) (p st), plus a scan the root does not reach.
  Plan p;
  int s = p.AddScan(0, ScanOp::kSeqScan);
  int c = p.AddScan(1, ScanOp::kIndexScan);
  int sc = p.AddJoin(s, c, JoinOp::kMergeJoin);
  p.AddScan(2, ScanOp::kSeqScan);
  int pr = p.AddScan(2, ScanOp::kIndexScan);
  int st = p.AddScan(3, ScanOp::kSeqScan);
  int pst = p.AddJoin(pr, st, JoinOp::kNLJoin);
  p.AddJoin(sc, pst, JoinOp::kHashJoin);

  std::vector<nn::TreeSample> all = featurizer_.SubtreeFeatures(query_, p);
  ASSERT_EQ(all.size(), static_cast<size_t>(p.num_nodes()));
  for (int i = 0; i < p.num_nodes(); ++i) {
    nn::TreeSample want = featurizer_.PlanFeatures(query_, p, i);
    EXPECT_EQ(all[i].features, want.features) << "node " << i;
    EXPECT_EQ(all[i].left, want.left) << "node " << i;
    EXPECT_EQ(all[i].right, want.right) << "node " << i;
  }
}

TEST_F(FeaturizerTest, SelfJoinAliasesShareTableSlot) {
  QueryBuilder b(&fixture_.schema(), "self");
  auto q = b.From("sales", "s1").From("sales", "s2").From("customer", "c")
               .JoinEq("s1.customer_id", "c.id")
               .JoinEq("s2.customer_id", "c.id")
               .Filter("s1.amount", PredOp::kLt, 10)
               .Build();
  ASSERT_TRUE(q.ok());
  q->set_id(41);
  nn::Vec feat = featurizer_.QueryFeatures(*q);
  int sales = fixture_.schema().TableIndex("sales");
  // The slot holds the *most selective* alias's selectivity.
  EXPECT_GT(feat[sales], 0.f);
  EXPECT_LT(feat[sales], 1.f);
}

}  // namespace
}  // namespace balsa
