// Google-benchmark microbenchmarks for the hot paths: executor joins,
// oracle lookups, value-network inference and training, beam-search
// planning, and DP enumeration, which bound the per-iteration cost of the
// learning loop; plus query canonicalization and plan remapping, which
// set the cost of a plan-cache hit.
#include <benchmark/benchmark.h>

#include <numeric>

#include "src/balsa/planner.h"
#include "src/balsa/simulation.h"
#include "src/model/value_network.h"
#include "src/optimizer/dp_optimizer.h"
#include "src/serving/query_fingerprint.h"
#include "src/workloads/imdb_like.h"
#include "src/workloads/job_workload.h"
#include "tests/test_util.h"

namespace balsa {
namespace {

struct MicroEnv {
  testing::StarFixture fixture = testing::MakeStarFixture(42, 20000);
  Query query = testing::MakeStarQuery(fixture.schema());
  Featurizer featurizer{&fixture.schema(), fixture.estimator.get()};
  CoutCostModel cout{fixture.estimator, &fixture.schema()};
  std::unique_ptr<ValueNetwork> net;

  MicroEnv() {
    ValueNetConfig config;
    config.query_dim = featurizer.query_dim();
    config.node_dim = featurizer.node_dim();
    net = std::make_unique<ValueNetwork>(config);
  }
};

MicroEnv& GlobalEnv() {
  static MicroEnv* env = new MicroEnv();
  return *env;
}

void BM_ExecutorScan(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Executor executor(env.fixture.db.get());
  for (auto _ : state) {
    auto scan = executor.Scan(env.query, 0);
    benchmark::DoNotOptimize(scan);
  }
}
BENCHMARK(BM_ExecutorScan);

void BM_ExecutorHashJoin(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Executor executor(env.fixture.db.get());
  auto sales = executor.Scan(env.query, 0);
  auto customer = executor.Scan(env.query, 1);
  for (auto _ : state) {
    auto joined = executor.Join(env.query, *sales, *customer);
    benchmark::DoNotOptimize(joined);
  }
}
BENCHMARK(BM_ExecutorHashJoin);

void BM_OracleCachedLookup(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  TableSet all = env.query.AllTables();
  (void)env.fixture.oracle->Cardinality(env.query, all);  // warm
  for (auto _ : state) {
    auto card = env.fixture.oracle->Cardinality(env.query, all);
    benchmark::DoNotOptimize(card);
  }
}
BENCHMARK(BM_OracleCachedLookup);

void BM_ValueNetworkPredict(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  int sc = plan.AddJoin(s, c, JoinOp::kHashJoin);
  int p = plan.AddScan(2, ScanOp::kSeqScan);
  plan.AddJoin(sc, p, JoinOp::kHashJoin);
  nn::Vec qf = env.featurizer.QueryFeatures(env.query);
  nn::TreeSample tree = env.featurizer.PlanFeatures(env.query, plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.net->Predict(qf, tree));
  }
}
BENCHMARK(BM_ValueNetworkPredict);

void BM_ValueNetworkForwardBatch(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  int sc = plan.AddJoin(s, c, JoinOp::kHashJoin);
  int p = plan.AddScan(2, ScanOp::kSeqScan);
  plan.AddJoin(sc, p, JoinOp::kHashJoin);
  nn::Vec qf = env.featurizer.QueryFeatures(env.query);
  nn::TreeSample tree = env.featurizer.PlanFeatures(env.query, plan);
  std::vector<const nn::TreeSample*> batch(
      static_cast<size_t>(state.range(0)), &tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.net->ForwardBatch(qf, batch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ValueNetworkForwardBatch)->Arg(8)->Arg(32)->Arg(128);

/// The JOB shapes perfbench plans at: the 21-table IMDb-like schema, whose
/// layer-1 input is 21 query selectivities and 27 mostly one-hot node
/// inputs, and perfbench's 32/16/16 value network. The JOB workload needs
/// only its schema, not data.
struct JobEnv {
  /// Query features need selectivities, not data: relation i's is
  /// 1 / (2 + i).
  class FixedSelectivities : public CardinalityEstimatorInterface {
   public:
    double EstimateScanRows(const Query&, int) const override { return 1e3; }
    double EstimateJoinRows(const Query&, TableSet) const override {
      return 1e3;
    }
    double EstimateSelectivity(const Query&, int rel) const override {
      return 1.0 / (2 + rel);
    }
  };

  Schema schema;
  Workload workload;
  FixedSelectivities estimator;
  Featurizer featurizer{&schema, &estimator};
  const Query* query = nullptr;  // the largest with at most 10 relations
  std::unique_ptr<ValueNetwork> net;

  JobEnv(Schema s, Workload w)
      : schema(std::move(s)), workload(std::move(w)) {
    query = &workload.queries().front();
    for (const Query& q : workload.queries()) {
      if (q.num_relations() <= 10 &&
          q.num_relations() > query->num_relations()) {
        query = &q;
      }
    }
    ValueNetConfig config;
    config.query_dim = featurizer.query_dim();
    config.node_dim = featurizer.node_dim();
    config.tree_hidden1 = 32;
    config.tree_hidden2 = 16;
    config.mlp_hidden = 16;
    net = std::make_unique<ValueNetwork>(config);
  }
};

JobEnv& GlobalJobEnv() {
  static JobEnv* env = [] {
    StatusOr<Schema> schema = BuildImdbLikeSchema();
    BALSA_CHECK(schema.ok(), schema.status().ToString());
    StatusOr<Workload> workload = GenerateJobWorkload(*schema);
    BALSA_CHECK(workload.ok(), workload.status().ToString());
    return new JobEnv(std::move(schema).value(),
                      std::move(workload).value());
  }();
  return *env;
}

/// A plan joining n distinct relations of `query`, drawn at random,
/// left-deep and then one more as the root's right child, with random scan
/// and join operators: one of many distinct subtrees of that size.
Plan RandomLeftDeepPlan(const Query& query, int n, Rng* rng) {
  std::vector<int> rels(static_cast<size_t>(query.num_relations()));
  std::iota(rels.begin(), rels.end(), 0);
  rng->Shuffle(&rels);
  Plan plan;
  auto scan = [&](int rel) {
    return plan.AddScan(rel, static_cast<ScanOp>(rng->Uniform(kNumScanOps)));
  };
  int root = scan(rels[0]);
  for (int r = 1; r < n; ++r) {
    root = plan.AddJoin(root, scan(rels[static_cast<size_t>(r)]),
                        static_cast<JoinOp>(rng->Uniform(kNumJoinOps)));
  }
  plan.set_root(root);
  return plan;
}

// Join roots of `relations` relations (left-deep, then one more relation as
// the right child) scored the way beam search scores them: only the root,
// from its children's cached rows and child terms, state.range(0) jobs per
// call. Each job has its own children and root, drawn by RandomLeftDeepPlan,
// so which child wins each pooled maximum varies from job to job as it does
// across a frontier, instead of repeating one pattern that the branch
// predictor learns.
void ScoreRootsLoop(benchmark::State& state, const ValueNetwork& net,
                    const Featurizer& featurizer, const Query& query,
                    int relations) {
  nn::Vec qf = featurizer.QueryFeatures(query);
  nn::Vec term = testing::QueryTermOf(net, qf);
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(n);
  std::vector<nn::Vec> roots;
  // EmbedSubtree fills both child terms of what it returns.
  std::vector<testing::Embedding> children;
  for (size_t i = 0; i < n; ++i) {
    const Plan plan = RandomLeftDeepPlan(query, relations, &rng);
    const PlanNode& node = plan.node(plan.root());
    roots.push_back(featurizer.NodeFeatures(query, node));
    for (int child : {node.left, node.right}) {
      children.push_back(
          testing::EmbedSubtree(net, featurizer, query, qf, plan, child));
    }
  }
  const size_t stride = static_cast<size_t>(net.row_layout().stride);
  std::vector<float> rows(n * stride);
  std::vector<double> scores(n);
  std::vector<RootJob> batch;
  for (size_t i = 0; i < n; ++i) {
    batch.push_back({term.data(), roots[i].data(), children[2 * i].row.data(),
                     children[2 * i + 1].row.data(), &rows[i * stride],
                     &scores[i]});
  }
  for (auto _ : state) {
    net.ScoreRoots(batch);
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// The child terms a search computes before scoring a frontier, for
// state.range(0) distinct subtrees of `relations` relations
// (RandomLeftDeepPlan): half as left children, half as right.
void ChildTermsLoop(benchmark::State& state, const ValueNetwork& net,
                    const Featurizer& featurizer, const Query& query,
                    int relations) {
  nn::Vec qf = featurizer.QueryFeatures(query);
  nn::Vec term = testing::QueryTermOf(net, qf);
  Rng rng(static_cast<uint64_t>(state.range(0)));
  std::vector<nn::Vec> feats;
  std::vector<testing::Embedding> children;
  for (int64_t i = 0; i < state.range(0); ++i) {
    const Plan plan = RandomLeftDeepPlan(query, relations, &rng);
    feats.push_back(featurizer.NodeFeatures(query, plan.node(plan.root())));
    children.push_back(testing::EmbedSubtree(net, featurizer, query, qf, plan));
  }
  std::vector<TermJob> jobs;
  for (size_t i = 0; i < children.size(); ++i) {
    jobs.push_back({term.data(), feats[i].data(), children[i].row.data(),
                    static_cast<int>(i % 2)});
  }
  for (auto _ : state) {
    net.ChildTerms(jobs);
    benchmark::DoNotOptimize(children.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// The star fixture (4 tables, 64/32 hidden units): layer 2 dominates.
void BM_ValueNetworkScoreRoots(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  ScoreRootsLoop(state, *env.net, env.featurizer, env.query, 3);
}
BENCHMARK(BM_ValueNetworkScoreRoots)->Arg(8)->Arg(32)->Arg(128);

void BM_ValueNetworkChildTerms(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  ChildTermsLoop(state, *env.net, env.featurizer, env.query, 2);
}
BENCHMARK(BM_ValueNetworkChildTerms)->Arg(8)->Arg(32);

// The JOB shapes, where layer 1 is most of the work: a 6-relation
// left-deep root, and 2-relation joins as children.
void BM_ValueNetworkScoreRootsJob(benchmark::State& state) {
  JobEnv& env = GlobalJobEnv();
  ScoreRootsLoop(state, *env.net, env.featurizer, *env.query, 6);
}
BENCHMARK(BM_ValueNetworkScoreRootsJob)->Arg(8)->Arg(32)->Arg(128);

void BM_ValueNetworkChildTermsJob(benchmark::State& state) {
  JobEnv& env = GlobalJobEnv();
  ChildTermsLoop(state, *env.net, env.featurizer, *env.query, 2);
}
BENCHMARK(BM_ValueNetworkChildTermsJob)->Arg(8)->Arg(32);

// One SGD epoch of ValueNetwork::Train over 256 simulator points (every
// subtree of the star query's enumerated plans), in minibatches of 64;
// items/s is training samples per second.
void BM_ValueNetworkTrain(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  SimulationOptions sim;
  sim.max_points_per_query = 256;
  sim.canonical_operators_only = false;
  sim.num_threads = 1;
  auto data = CollectSimulationData({&env.query}, env.fixture.schema(),
                                    env.cout, env.featurizer, sim);
  BALSA_CHECK(data.ok() && data->size() == 256, "256 training points");
  ValueNetwork net(env.net->config());
  ValueNetwork::TrainOptions options;
  options.max_epochs = 1;
  options.val_fraction = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Train(*data, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data->size()));
}
BENCHMARK(BM_ValueNetworkTrain);

void BM_BeamSearchPlanQuery(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  PlannerOptions options;
  options.beam_size = static_cast<int>(state.range(0));
  options.top_k = static_cast<int>(state.range(1));
  BeamSearchPlanner planner(&env.fixture.schema(), &env.featurizer,
                            env.net.get(), options);
  for (auto _ : state) {
    auto result = planner.TopK(env.query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BeamSearchPlanQuery)->Args({5, 1})->Args({20, 10});

// One miss's beam search at serve_miss's shapes: the JOB query with the most
// relations up to 10, a 32/16/16 network, beam 10, top-k 5.
void BM_BeamSearchPlanQueryJob(benchmark::State& state) {
  JobEnv& env = GlobalJobEnv();
  PlannerOptions options;
  options.beam_size = 10;
  options.top_k = 5;
  BeamSearchPlanner planner(&env.schema, &env.featurizer, env.net.get(),
                            options);
  for (auto _ : state) {
    auto result = planner.TopK(*env.query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BeamSearchPlanQueryJob);

void BM_DpOptimize(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  DpOptimizer dp(&env.fixture.schema(), &env.cout);
  for (auto _ : state) {
    auto plan = dp.Optimize(env.query);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_DpOptimize);

void BM_FeaturizePlan(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  plan.AddJoin(s, c, JoinOp::kHashJoin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.featurizer.PlanFeatures(env.query, plan));
  }
}
BENCHMARK(BM_FeaturizePlan);

/// The largest JOB query the serving benchmarks send (at most 10
/// relations).
const Query& JobServingQuery() { return *GlobalJobEnv().query; }

/// A repeated literal form: after the first iteration, a memo hit.
void BM_CanonicalizeQuery(benchmark::State& state) {
  const Query& query = JobServingQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalizeQuery(query));
  }
  state.SetLabel(std::to_string(query.num_relations()) + " relations, " +
                 std::to_string(query.joins().size()) + " joins");
}
BENCHMARK(BM_CanonicalizeQuery);

/// A literal form the thread has not seen recently, as perfbench
/// serve_miss sends: the query plus one `<>` filter whose constant differs
/// per variant. The 512 variants overrun the memo's 192 entries, so each
/// comes back evicted and every call runs the refinement, plus the memo's
/// hash, probe and store.
void BM_CanonicalizeQueryCold(benchmark::State& state) {
  const Query& query = JobServingQuery();
  std::vector<Query> variants;
  for (int64_t value = 0; value < 512; ++value) {
    std::vector<FilterPredicate> filters = query.filters();
    FilterPredicate extra;
    extra.col = {0, 0};
    extra.op = PredOp::kNe;
    extra.value = value;
    filters.push_back(extra);
    variants.emplace_back(query.name(), query.relations(), query.joins(),
                          std::move(filters));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalizeQuery(variants[next]));
    next = (next + 1) % variants.size();
  }
}
BENCHMARK(BM_CanonicalizeQueryCold);

/// A cached plan (left-deep, canonical numbering) back to the query's
/// FROM numbering, as a cache hit does.
void BM_RemapPlanRelations(benchmark::State& state) {
  const Query& query = JobServingQuery();
  Plan plan;
  int root = plan.AddScan(0, ScanOp::kSeqScan);
  for (int r = 1; r < query.num_relations(); ++r) {
    root = plan.AddJoin(root, plan.AddScan(r, ScanOp::kIndexScan),
                        JoinOp::kHashJoin);
  }
  std::vector<int> from_canonical =
      InversePermutation(CanonicalizeQuery(query).canonical_rank);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RemapPlanRelations(plan, from_canonical));
  }
}
BENCHMARK(BM_RemapPlanRelations);

}  // namespace
}  // namespace balsa
