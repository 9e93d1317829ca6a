#include "src/plan/plan.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace balsa {
namespace {

Plan LeftDeep3(JoinOp op1 = JoinOp::kHashJoin,
               JoinOp op2 = JoinOp::kHashJoin) {
  Plan p;
  int a = p.AddScan(0, ScanOp::kSeqScan);
  int b = p.AddScan(1, ScanOp::kSeqScan);
  int ab = p.AddJoin(a, b, op1);
  int c = p.AddScan(2, ScanOp::kIndexScan);
  p.AddJoin(ab, c, op2);
  return p;
}

TEST(PlanTest, BuildAndShape) {
  Plan p = LeftDeep3();
  EXPECT_EQ(p.num_nodes(), 5);
  EXPECT_EQ(p.NumJoins(), 2);
  EXPECT_TRUE(p.IsLeftDeep());
  EXPECT_FALSE(p.IsBushy());
  EXPECT_EQ(p.RootTables(), TableSet::FirstN(3));
  EXPECT_EQ(p.Depth(), 3);  // node depth: leaf=1, two stacked joins=3
  EXPECT_TRUE(p.Validate());
}

TEST(PlanTest, BushyDetection) {
  Plan p;
  int a = p.AddScan(0, ScanOp::kSeqScan);
  int b = p.AddScan(1, ScanOp::kSeqScan);
  int c = p.AddScan(2, ScanOp::kSeqScan);
  int d = p.AddScan(3, ScanOp::kSeqScan);
  int ab = p.AddJoin(a, b, JoinOp::kHashJoin);
  int cd = p.AddJoin(c, d, JoinOp::kMergeJoin);
  p.AddJoin(ab, cd, JoinOp::kHashJoin);
  EXPECT_TRUE(p.IsBushy());
  EXPECT_FALSE(p.IsLeftDeep());
  EXPECT_TRUE(p.Validate());
}

TEST(PlanTest, RightDeepIsNotBushy) {
  Plan p;
  int a = p.AddScan(0, ScanOp::kSeqScan);
  int b = p.AddScan(1, ScanOp::kSeqScan);
  int c = p.AddScan(2, ScanOp::kSeqScan);
  int bc = p.AddJoin(b, c, JoinOp::kHashJoin);
  p.AddJoin(a, bc, JoinOp::kHashJoin);
  EXPECT_FALSE(p.IsBushy());
  EXPECT_FALSE(p.IsLeftDeep());  // right child is a join
}

TEST(PlanTest, FingerprintSensitivity) {
  // Same structure, same ops -> equal fingerprints.
  EXPECT_EQ(LeftDeep3().Fingerprint(), LeftDeep3().Fingerprint());
  // Different join operator -> different fingerprint.
  EXPECT_NE(LeftDeep3().Fingerprint(),
            LeftDeep3(JoinOp::kMergeJoin).Fingerprint());
  // Different operator on the second join too.
  EXPECT_NE(LeftDeep3(JoinOp::kHashJoin, JoinOp::kNLJoin).Fingerprint(),
            LeftDeep3().Fingerprint());
}

TEST(PlanTest, FingerprintDistinguishesChildOrder) {
  Plan p1, p2;
  int a1 = p1.AddScan(0, ScanOp::kSeqScan);
  int b1 = p1.AddScan(1, ScanOp::kSeqScan);
  p1.AddJoin(a1, b1, JoinOp::kHashJoin);
  int b2 = p2.AddScan(1, ScanOp::kSeqScan);
  int a2 = p2.AddScan(0, ScanOp::kSeqScan);
  p2.AddJoin(b2, a2, JoinOp::kHashJoin);
  // Build/probe sides matter physically.
  EXPECT_NE(p1.Fingerprint(), p2.Fingerprint());
}

TEST(PlanTest, SubtreeFingerprintMatchesExtracted) {
  Plan p = LeftDeep3();
  // Node 2 is the (0 join 1) subtree.
  Plan sub = ExtractSubtree(p, 2);
  EXPECT_EQ(sub.Fingerprint(), p.Fingerprint(2));
  EXPECT_EQ(sub.RootTables(), TableSet::FirstN(2));
  EXPECT_TRUE(sub.Validate());
}

TEST(PlanTest, SubtreeFingerprintsMatchPerNode) {
  Plan p;
  int a = p.AddScan(0, ScanOp::kSeqScan);
  int b = p.AddScan(1, ScanOp::kIndexScan);
  int ab = p.AddJoin(a, b, JoinOp::kHashJoin);
  int c = p.AddScan(2, ScanOp::kSeqScan);
  int d = p.AddScan(3, ScanOp::kSeqScan);
  int cd = p.AddJoin(c, d, JoinOp::kMergeJoin);
  p.AddJoin(ab, cd, JoinOp::kNLJoin);
  std::vector<uint64_t> fps = p.SubtreeFingerprints();
  ASSERT_EQ(fps.size(), static_cast<size_t>(p.num_nodes()));
  for (int i = 0; i < p.num_nodes(); ++i) EXPECT_EQ(fps[i], p.Fingerprint(i));
}

TEST(PlanTest, ComposeJoinMergesArenas) {
  Plan l;
  l.set_root(l.AddScan(0, ScanOp::kSeqScan));
  Plan r;
  r.set_root(r.AddScan(1, ScanOp::kSeqScan));
  Plan joined = ComposeJoin(l, r, JoinOp::kMergeJoin);
  EXPECT_EQ(joined.NumJoins(), 1);
  EXPECT_EQ(joined.RootTables(), TableSet::FirstN(2));
  EXPECT_TRUE(joined.Validate());
}

TEST(PlanTest, ComposeIndexNLRewritesInnerScan) {
  Plan l;
  l.set_root(l.AddScan(0, ScanOp::kSeqScan));
  Plan r;
  r.set_root(r.AddScan(1, ScanOp::kSeqScan));
  Plan joined = ComposeJoin(l, r, JoinOp::kIndexNLJoin);
  const PlanNode& root = joined.node(joined.root());
  ASSERT_TRUE(root.is_join);
  EXPECT_EQ(root.join_op, JoinOp::kIndexNLJoin);
  EXPECT_EQ(joined.node(root.right).scan_op, ScanOp::kIndexScan);
}

TEST(PlanTest, NodeFingerprintsComposeToPlanFingerprint) {
  // Leaf/JoinFingerprint are the one hash definition: composing them over
  // the children's fingerprints gives Fingerprint() at every node.
  Plan p = LeftDeep3(JoinOp::kMergeJoin, JoinOp::kNLJoin);
  for (int idx = 0; idx < p.num_nodes(); ++idx) {
    const PlanNode& n = p.node(idx);
    const uint64_t want =
        n.is_join ? Plan::JoinFingerprint(n.join_op, p.Fingerprint(n.left),
                                          p.Fingerprint(n.right))
                  : Plan::LeafFingerprint(n.relation, n.scan_op);
    EXPECT_EQ(p.Fingerprint(idx), want) << "node " << idx;
  }
  // An index-NL join over a sequential-scan inner is the join over the
  // rewritten index-scan inner.
  Plan l = ExtractSubtree(p, 2);
  Plan r;
  r.set_root(r.AddScan(2, ScanOp::kSeqScan));
  Plan joined = ComposeJoin(l, r, JoinOp::kIndexNLJoin);
  EXPECT_EQ(joined.Fingerprint(),
            Plan::JoinFingerprint(JoinOp::kIndexNLJoin, l.Fingerprint(),
                                  Plan::LeafFingerprint(2,
                                                        ScanOp::kIndexScan)));
  EXPECT_NE(joined.Fingerprint(),
            Plan::JoinFingerprint(JoinOp::kIndexNLJoin, l.Fingerprint(),
                                  r.Fingerprint()));
}

TEST(PlanTest, CountOps) {
  Plan p = LeftDeep3(JoinOp::kHashJoin, JoinOp::kIndexNLJoin);
  std::vector<int> joins, scans;
  p.CountOps(&joins, &scans);
  EXPECT_EQ(joins[static_cast<int>(JoinOp::kHashJoin)], 1);
  EXPECT_EQ(joins[static_cast<int>(JoinOp::kIndexNLJoin)], 1);
  EXPECT_EQ(joins[static_cast<int>(JoinOp::kMergeJoin)], 0);
  EXPECT_EQ(scans[static_cast<int>(ScanOp::kSeqScan)] +
                scans[static_cast<int>(ScanOp::kIndexScan)],
            3);
}

TEST(PlanTest, ToStringMentionsAliases) {
  auto fixture = testing::MakeStarFixture();
  Query q = testing::MakeStarQuery(fixture.schema());
  Plan p;
  int a = p.AddScan(0, ScanOp::kSeqScan);
  int b = p.AddScan(1, ScanOp::kSeqScan);
  p.AddJoin(a, b, JoinOp::kHashJoin);
  std::string s = p.ToString(q);
  EXPECT_NE(s.find("s"), std::string::npos);
  EXPECT_NE(s.find("HashJoin"), std::string::npos);
}

}  // namespace
}  // namespace balsa
