// Micro-benchmark for the batched value-network inference path: evals/sec
// of the legacy per-item Predict hot path (batch size 1 — how beam search
// scored plans before the runtime subsystem) vs ValueNetwork::ForwardBatch
// at micro-batch sizes {8, 32, 128}. The acceptance gate for the runtime is
// >= 2x evals/sec at batch 32 (ForwardBatch vs Predict).
//
// Usage: bench_inference_batching [--full]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/model/value_network.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace balsa {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct BenchSetup {
  testing::StarFixture fixture = testing::MakeStarFixture(42, 2000);
  Query query = testing::MakeStarQuery(fixture.schema());
  Featurizer featurizer{&fixture.schema(), fixture.estimator.get()};
  std::unique_ptr<ValueNetwork> net;
  nn::Vec query_feat = featurizer.QueryFeatures(query);
  std::vector<nn::TreeSample> trees;

  explicit BenchSetup(int num_plans) {
    ValueNetConfig config;  // paper-default hidden sizes
    config.query_dim = featurizer.query_dim();
    config.node_dim = featurizer.node_dim();
    net = std::make_unique<ValueNetwork>(config);

    // Distinct random left-deep plans over the 4-way star, the shape of a
    // beam-search frontier.
    Rng rng(7);
    const JoinOp ops[3] = {JoinOp::kHashJoin, JoinOp::kMergeJoin,
                           JoinOp::kNLJoin};
    for (int i = 0; i < num_plans; ++i) {
      std::vector<int> rels{1, 2, 3};
      rng.Shuffle(&rels);
      Plan plan;
      int root = plan.AddScan(0, ScanOp::kSeqScan);
      for (int rel : rels) {
        root = plan.AddJoin(root, plan.AddScan(rel, ScanOp::kSeqScan),
                            ops[rng.Uniform(3)]);
      }
      plan.set_root(root);
      trees.push_back(featurizer.PlanFeatures(query, plan));
    }
  }
};

/// Runs `eval_all` (scoring all of `setup.trees` once) repeatedly until
/// `min_seconds` elapse; returns evals/sec.
template <typename Fn>
double Throughput(const BenchSetup& setup, double min_seconds, Fn&& eval_all) {
  eval_all();  // warmup
  int64_t evals = 0;
  double start = Now();
  double elapsed = 0;
  do {
    eval_all();
    evals += static_cast<int64_t>(setup.trees.size());
    elapsed = Now() - start;
  } while (elapsed < min_seconds);
  return static_cast<double>(evals) / elapsed;
}

int Main(int argc, char** argv) {
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
  }
  const int num_plans = 384;  // divisible by 8, 32, and 128
  const double min_seconds = full ? 2.0 : 0.4;
  BenchSetup setup(num_plans);
  std::printf("inference batching: %d plans, %zu network weights\n",
              num_plans, setup.net->NumWeights());

  const nn::Vec& query_feat = setup.query_feat;
  std::vector<const nn::TreeSample*> ptrs;
  for (const nn::TreeSample& t : setup.trees) ptrs.push_back(&t);

  // Batch size 1: the pre-runtime hot path, one Predict per plan.
  double base = Throughput(setup, min_seconds, [&] {
    for (const nn::TreeSample& t : setup.trees) {
      setup.net->Predict(query_feat, t);
    }
  });

  std::printf("  %-28s %12.0f evals/sec  %6s\n",
              "batch=1 (per-item Predict)", base, "1.00x");

  double speedup_at_32 = 0;
  for (int batch : {8, 32, 128}) {
    double rate = Throughput(setup, min_seconds, [&] {
      for (size_t lo = 0; lo < ptrs.size(); lo += batch) {
        std::vector<const nn::TreeSample*> chunk(
            ptrs.begin() + lo, ptrs.begin() + lo + batch);
        setup.net->ForwardBatch(query_feat, chunk);
      }
    });
    if (batch == 32) speedup_at_32 = rate / base;
    char label[64];
    std::snprintf(label, sizeof(label), "ForwardBatch batch=%d", batch);
    std::printf("  %-28s %12.0f evals/sec  %5.2fx\n", label, rate,
                rate / base);
  }

  const bool pass = speedup_at_32 >= 2.0;
  std::printf("speedup at batch=32 vs batch=1: %.2fx (target >= 2x) %s\n",
              speedup_at_32, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;  // a kernel regression must fail the bench run
}

}  // namespace
}  // namespace balsa

int main(int argc, char** argv) { return balsa::Main(argc, argv); }
