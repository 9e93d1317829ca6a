#include "src/exec/executor.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace balsa {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        executor_(fixture_.db.get()) {}

  // Brute-force filtered count of relation `rel`.
  int64_t BruteForceScanCount(int rel) {
    int64_t rows = fixture_.db->row_count(query_.relations()[rel].table_idx);
    int64_t count = 0;
    for (uint32_t r = 0; r < rows; ++r) {
      bool pass = true;
      for (const FilterPredicate& f : query_.FiltersOn(rel)) {
        pass = pass && executor_.EvalFilter(query_, f, r);
      }
      count += pass;
    }
    return count;
  }

  testing::StarFixture fixture_;
  Query query_;
  Executor executor_;
};

TEST_F(ExecutorTest, ScanAppliesFilters) {
  auto scan = executor_.Scan(query_, 1);  // customer, region = 2
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(), BruteForceScanCount(1));
  EXPECT_LT(scan->NumRows(),
            fixture_.db->row_count(query_.relations()[1].table_idx));
  EXPECT_GT(scan->NumRows(), 0);
}

TEST_F(ExecutorTest, UnfilteredScanReturnsAllRows) {
  auto scan = executor_.Scan(query_, 0);  // sales, no filters
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(),
            fixture_.db->row_count(query_.relations()[0].table_idx));
}

TEST_F(ExecutorTest, JoinMatchesBruteForce) {
  auto sales = executor_.Scan(query_, 0);
  auto customer = executor_.Scan(query_, 1);
  ASSERT_TRUE(sales.ok() && customer.ok());
  auto joined = executor_.Join(query_, *sales, *customer);
  ASSERT_TRUE(joined.ok());

  // Brute force: count sales rows whose customer_id passes customer's filter.
  Snapshot snap = fixture_.db->GetSnapshot();
  int sales_table = query_.relations()[0].table_idx;
  int cust_col = fixture_.schema()
                     .table(sales_table)
                     .ColumnIndex("customer_id");
  int64_t expected = 0;
  for (uint32_t r = 0; r < snap.row_count(sales_table); ++r) {
    int64_t cid = snap.column(sales_table, cust_col)[r];
    if (IsNull(cid)) continue;
    bool pass = true;
    for (const FilterPredicate& f : query_.FiltersOn(1)) {
      pass = pass && executor_.EvalFilter(query_, f,
                                          static_cast<uint32_t>(cid));
    }
    expected += pass;
  }
  EXPECT_EQ(joined->NumRows(), expected);
}

TEST_F(ExecutorTest, JoinWithoutPredicateFails) {
  auto customer = executor_.Scan(query_, 1);
  auto product = executor_.Scan(query_, 2);
  ASSERT_TRUE(customer.ok() && product.ok());
  auto joined = executor_.Join(query_, *customer, *product);
  EXPECT_FALSE(joined.ok());  // no cross products in SPJ plans
}

TEST_F(ExecutorTest, ExecutePlanEqualsStepwiseJoins) {
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  int sc = plan.AddJoin(s, c, JoinOp::kHashJoin);
  int p = plan.AddScan(2, ScanOp::kIndexScan);
  plan.AddJoin(sc, p, JoinOp::kMergeJoin);

  auto by_plan = executor_.Execute(query_, plan);
  ASSERT_TRUE(by_plan.ok());

  auto s1 = executor_.Scan(query_, 0);
  auto s2 = executor_.Scan(query_, 1);
  auto j1 = executor_.Join(query_, *s1, *s2);
  auto s3 = executor_.Scan(query_, 2);
  auto j2 = executor_.Join(query_, *j1, *s3);
  ASSERT_TRUE(j2.ok());
  EXPECT_EQ(by_plan->NumRows(), j2->NumRows());
}

TEST_F(ExecutorTest, PhysicalOperatorChoiceDoesNotChangeResult) {
  // The executor measures cardinality; all join operators are equivalent.
  for (JoinOp op : {JoinOp::kHashJoin, JoinOp::kMergeJoin, JoinOp::kNLJoin,
                    JoinOp::kIndexNLJoin}) {
    Plan plan;
    int s = plan.AddScan(0, ScanOp::kSeqScan);
    int c = plan.AddScan(1, ScanOp::kSeqScan);
    plan.AddJoin(s, c, op);
    auto result = executor_.Execute(query_, plan);
    ASSERT_TRUE(result.ok());
    static int64_t reference = -1;
    if (reference < 0) reference = result->NumRows();
    EXPECT_EQ(result->NumRows(), reference) << JoinOpName(op);
  }
}

TEST_F(ExecutorTest, RowCapFlagsIntermediate) {
  ExecutorOptions opts;
  opts.row_cap = 10;
  Executor capped(fixture_.db.get(), opts);
  auto scan = capped.Scan(query_, 0);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->capped);
  EXPECT_LE(scan->NumRows(), 10 + 1);
}

TEST_F(ExecutorTest, InFilter) {
  QueryBuilder b(&fixture_.schema(), "in_q");
  auto q = b.From("customer", "c").FilterIn("c.region", {0, 1}).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(77);
  auto scan = executor_.Scan(*q, 0);
  ASSERT_TRUE(scan.ok());
  // Matches eq(0) + eq(1).
  QueryBuilder b0(&fixture_.schema(), "q0");
  auto q0 = b0.From("customer", "c").Filter("c.region", PredOp::kEq, 0).Build();
  QueryBuilder b1(&fixture_.schema(), "q1");
  auto q1 = b1.From("customer", "c").Filter("c.region", PredOp::kEq, 1).Build();
  q0->set_id(78);
  q1->set_id(79);
  auto s0 = executor_.Scan(*q0, 0);
  auto s1 = executor_.Scan(*q1, 0);
  EXPECT_EQ(scan->NumRows(), s0->NumRows() + s1->NumRows());
}

TEST_F(ExecutorTest, NullsNeverMatchJoins) {
  // person_role-style FK with nulls: verified via the star schema by
  // filtering to NULL (-1), which no row may pass an Eq filter with.
  QueryBuilder b(&fixture_.schema(), "nullq");
  auto q = b.From("sales", "s").Filter("s.amount", PredOp::kEq, -1).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(80);
  auto scan = executor_.Scan(*q, 0);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(), 0);
}

TEST_F(ExecutorTest, NegativeValuesAreRealValuesNotNulls) {
  // Regression: only -1 is NULL. SetValues may write other negatives, and
  // they must be visible to filters, index-assisted scans, and join keys —
  // the executor used to treat every v < 0 as NULL and drop matching rows.
  int sales = fixture_.schema().TableIndex("sales");
  int cust = fixture_.schema().TableIndex("customer");
  int amount = fixture_.schema().table(sales).ColumnIndex("amount");
  int region = fixture_.schema().table(cust).ColumnIndex("region");
  int cust_id = fixture_.schema().table(sales).ColumnIndex("customer_id");
  ASSERT_TRUE(fixture_.db->SetValues(sales, amount, {{3, -7}, {8, -7}}).ok());
  ASSERT_TRUE(fixture_.db->SetValues(cust, region, {{0, -7}}).ok());

  // The executor pins a snapshot at construction: build a fresh one.
  Executor executor(fixture_.db.get());
  QueryBuilder b(&fixture_.schema(), "negq");
  auto q = b.From("sales", "s").Filter("s.amount", PredOp::kEq, -7).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(81);
  auto by_index = executor.Scan(*q, 0);
  ASSERT_TRUE(by_index.ok());
  EXPECT_EQ(by_index->NumRows(), 2);

  ExecutorOptions no_index;
  no_index.use_index_for_eq = false;
  Executor scanner(fixture_.db.get(), no_index);
  auto by_scan = scanner.Scan(*q, 0);
  ASSERT_TRUE(by_scan.ok());
  EXPECT_EQ(by_scan->tuples, by_index->tuples);  // identical row sequence

  // A negative (non-NULL) region value joins and filters normally.
  QueryBuilder jb(&fixture_.schema(), "negjoin");
  auto jq = jb.From("sales", "s").From("customer", "c")
                .JoinEq("s.customer_id", "c.id")
                .Filter("c.region", PredOp::kEq, -7)
                .Build();
  ASSERT_TRUE(jq.ok());
  jq->set_id(82);
  auto s = executor.Scan(*jq, 0);
  auto c = executor.Scan(*jq, 1);
  ASSERT_TRUE(s.ok() && c.ok());
  EXPECT_EQ(c->NumRows(), 1);  // customer 0, via the index
  auto joined = executor.Join(*jq, *s, *c);
  ASSERT_TRUE(joined.ok());
  // Exactly the sales rows that reference customer 0 — the brute count.
  Snapshot snap = executor.snapshot();
  int64_t expected = 0;
  for (int64_t v : snap.column(sales, cust_id)) expected += v == 0;
  EXPECT_EQ(joined->NumRows(), expected);
}

TEST_F(ExecutorTest, IndexAssistedScanMatchesFullScanEverywhere) {
  // Every eq-filtered scan of the star workload must be bitwise identical
  // with and without the index path, including the capped case.
  ExecutorOptions no_index;
  no_index.use_index_for_eq = false;
  Executor scanner(fixture_.db.get(), no_index);
  for (int64_t value : {0, 1, 2, 5, 9}) {
    QueryBuilder b(&fixture_.schema(), "eqscan");
    auto q = b.From("sales", "s").Filter("s.amount", PredOp::kEq, value)
                 .Filter("s.store_id", PredOp::kLt, 40)
                 .Build();
    ASSERT_TRUE(q.ok());
    q->set_id(90 + static_cast<int>(value));
    auto indexed = executor_.Scan(*q, 0);
    auto scanned = scanner.Scan(*q, 0);
    ASSERT_TRUE(indexed.ok() && scanned.ok());
    EXPECT_EQ(indexed->tuples, scanned->tuples) << "value " << value;
    EXPECT_EQ(indexed->capped, scanned->capped);
  }
  // Capped: both paths truncate at the same row with the flag set.
  ExecutorOptions capped_indexed;
  capped_indexed.row_cap = 3;
  ExecutorOptions capped_scan = capped_indexed;
  capped_scan.use_index_for_eq = false;
  QueryBuilder b(&fixture_.schema(), "capped_eq");
  auto q = b.From("sales", "s").Filter("s.amount", PredOp::kEq, 0).Build();
  ASSERT_TRUE(q.ok());
  q->set_id(99);
  auto a = Executor(fixture_.db.get(), capped_indexed).Scan(*q, 0);
  auto c = Executor(fixture_.db.get(), capped_scan).Scan(*q, 0);
  ASSERT_TRUE(a.ok() && c.ok());
  EXPECT_EQ(a->tuples, c->tuples);
  EXPECT_EQ(a->capped, c->capped);
}

}  // namespace
}  // namespace balsa
