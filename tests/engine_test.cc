#include "src/engine/execution_engine.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace balsa {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())) {
    engine_ = std::make_unique<ExecutionEngine>(
        fixture_.db.get(), fixture_.oracle.get(), PostgresLikeEngineOptions());
  }

  Plan LeftDeepAll(JoinOp op = JoinOp::kHashJoin) {
    Plan p;
    int s = p.AddScan(0, ScanOp::kSeqScan);
    int c = p.AddScan(1, ScanOp::kSeqScan);
    int sc = p.AddJoin(s, c, op);
    int pr = p.AddScan(2, ScanOp::kSeqScan);
    int scp = p.AddJoin(sc, pr, op);
    int st = p.AddScan(3, ScanOp::kSeqScan);
    p.AddJoin(scp, st, op);
    return p;
  }

  testing::StarFixture fixture_;
  Query query_;
  std::unique_ptr<ExecutionEngine> engine_;
};

TEST_F(EngineTest, ExecutesAndCaches) {
  Plan plan = LeftDeepAll();
  auto first = engine_->Execute(query_, plan);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  EXPECT_GT(first->latency_ms, 0);
  auto second = engine_->Execute(query_, plan);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->latency_ms, first->latency_ms);
  EXPECT_EQ(engine_->num_real_executions(), 1);
}

TEST_F(EngineTest, NoiseIsBoundedAroundNoiseless) {
  Plan plan = LeftDeepAll();
  auto noiseless = engine_->NoiselessLatency(query_, plan);
  auto executed = engine_->Execute(query_, plan);
  ASSERT_TRUE(noiseless.ok() && executed.ok());
  EXPECT_GT(executed->latency_ms, *noiseless * 0.5);
  EXPECT_LT(executed->latency_ms, *noiseless * 2.0);
}

TEST_F(EngineTest, TimeoutKillsSlowPlans) {
  Plan plan = LeftDeepAll();
  auto result = engine_->Execute(query_, plan, 0.001);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->timed_out);
  EXPECT_DOUBLE_EQ(result->latency_ms, 0.001);  // time spent = kill time
}

TEST_F(EngineTest, PlanQualityChangesLatency) {
  // On a larger fact table, all-NL join orders that defer the selective
  // dimension must be far slower than the filtered-first hash plan.
  auto big = testing::MakeStarFixture(/*seed=*/7, /*fact_rows=*/40000);
  Query query = testing::MakeStarQuery(big.schema());
  ExecutionEngine engine(big.db.get(), big.oracle.get(),
                         PostgresLikeEngineOptions());
  // Good: hash joins building on the small (dimension) side.
  Plan good;
  {
    int c = good.AddScan(1, ScanOp::kSeqScan);
    int s = good.AddScan(0, ScanOp::kSeqScan);
    int cs = good.AddJoin(c, s, JoinOp::kHashJoin);
    int pr = good.AddScan(2, ScanOp::kSeqScan);
    int j2 = good.AddJoin(pr, cs, JoinOp::kHashJoin);
    int st = good.AddScan(3, ScanOp::kSeqScan);
    good.AddJoin(st, j2, JoinOp::kHashJoin);
  }
  Plan bad;
  {
    int s = bad.AddScan(0, ScanOp::kSeqScan);
    int st = bad.AddScan(3, ScanOp::kSeqScan);
    int j1 = bad.AddJoin(s, st, JoinOp::kNLJoin);
    int pr = bad.AddScan(2, ScanOp::kSeqScan);
    int j2 = bad.AddJoin(j1, pr, JoinOp::kNLJoin);
    int c = bad.AddScan(1, ScanOp::kSeqScan);
    bad.AddJoin(j2, c, JoinOp::kNLJoin);
  }
  auto lg = engine.NoiselessLatency(query, good);
  auto lb = engine.NoiselessLatency(query, bad);
  ASSERT_TRUE(lg.ok() && lb.ok());
  EXPECT_GT(*lb, *lg * 2);
}

TEST_F(EngineTest, CommDbRejectsBushyPlans) {
  ExecutionEngine commdb(fixture_.db.get(), fixture_.oracle.get(),
                         CommDbLikeEngineOptions());
  // The rejection is purely shape-based (a hint-interface property), so the
  // plan need not be semantically executable.
  Plan genuinely_bushy;
  {
    int a = genuinely_bushy.AddScan(0, ScanOp::kSeqScan);
    int b = genuinely_bushy.AddScan(1, ScanOp::kSeqScan);
    int ab = genuinely_bushy.AddJoin(a, b, JoinOp::kHashJoin);
    int x = genuinely_bushy.AddScan(2, ScanOp::kSeqScan);
    int y = genuinely_bushy.AddScan(3, ScanOp::kSeqScan);
    int xy = genuinely_bushy.AddJoin(x, y, JoinOp::kHashJoin);
    genuinely_bushy.AddJoin(ab, xy, JoinOp::kHashJoin);
  }
  EXPECT_FALSE(commdb.AcceptsPlan(genuinely_bushy));
  EXPECT_TRUE(engine_->AcceptsPlan(genuinely_bushy));
  auto result = commdb.Execute(query_, genuinely_bushy);
  EXPECT_FALSE(result.ok());
}

TEST_F(EngineTest, EnginesDifferInLatencyProfile) {
  ExecutionEngine commdb(fixture_.db.get(), fixture_.oracle.get(),
                         CommDbLikeEngineOptions());
  Plan plan = LeftDeepAll();
  auto pg = engine_->NoiselessLatency(query_, plan);
  auto cd = commdb.NoiselessLatency(query_, plan);
  ASSERT_TRUE(pg.ok() && cd.ok());
  EXPECT_NE(*pg, *cd);
}

TEST_F(EngineTest, DisasterFloorAppliesToCappedPlans) {
  CardOracle capped_oracle(fixture_.db.get(), /*row_cap=*/5);
  EngineOptions options = PostgresLikeEngineOptions();
  ExecutionEngine engine(fixture_.db.get(), &capped_oracle, options);
  auto latency = engine.NoiselessLatency(query_, LeftDeepAll());
  ASSERT_TRUE(latency.ok());
  EXPECT_GE(*latency, kDisasterMinLatencyMs);
}

TEST(PoolModelTest, MakespanBalancesLoad) {
  ExecutionPoolModel pool(2);
  // Jobs: 4+3 vs 5 -> makespan 7 with greedy least-loaded placement.
  EXPECT_DOUBLE_EQ(pool.Makespan({5, 4, 3}), 7);
  ExecutionPoolModel one(1);
  EXPECT_DOUBLE_EQ(one.Makespan({5, 4, 3}), 12);
  // More workers never increase the makespan.
  ExecutionPoolModel four(4);
  EXPECT_LE(four.Makespan({5, 4, 3}), pool.Makespan({5, 4, 3}));
}

}  // namespace
}  // namespace balsa
