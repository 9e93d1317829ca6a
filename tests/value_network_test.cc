#include "src/model/value_network.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "src/balsa/simulation.h"
#include "test_util.h"

namespace balsa {
namespace {

ValueNetConfig SmallConfig() {
  ValueNetConfig config;
  config.query_dim = 4;
  config.node_dim = 6;
  config.tree_hidden1 = 16;
  config.tree_hidden2 = 8;
  config.mlp_hidden = 8;
  config.init_seed = 7;
  return config;
}

nn::TreeSample Leaf(int node_dim, float fill) {
  nn::TreeSample t;
  t.features = {nn::Vec(static_cast<size_t>(node_dim), fill)};
  t.left = {-1};
  t.right = {-1};
  return t;
}

nn::TreeSample Join(int node_dim, float a, float b) {
  nn::TreeSample t;
  t.features = {nn::Vec(static_cast<size_t>(node_dim), 0.5f),
                nn::Vec(static_cast<size_t>(node_dim), a),
                nn::Vec(static_cast<size_t>(node_dim), b)};
  t.left = {1, -1, -1};
  t.right = {2, -1, -1};
  return t;
}

TEST(ValueNetworkTest, PredictIsDeterministic) {
  ValueNetwork net(SmallConfig());
  nn::Vec q(4, 0.2f);
  auto plan = Join(6, 0.1f, 0.9f);
  EXPECT_EQ(net.Predict(q, plan), net.Predict(q, plan));
}

TEST(ValueNetworkTest, PredictionsNonNegativeUnderLogTransform) {
  ValueNetwork net(SmallConfig());
  nn::Vec q(4, 0.2f);
  // expm1 of any finite output >= -1; labels are latencies >= 0, so the
  // inverse transform keeps predictions above -1.
  EXPECT_GT(net.Predict(q, Leaf(6, -3.f)), -1.0);
}

TEST(ValueNetworkTest, OverfitsTinyDataset) {
  ValueNetwork net(SmallConfig());
  std::vector<TrainingPoint> data;
  for (int i = 0; i < 8; ++i) {
    TrainingPoint pt;
    pt.query = nn::Vec(4, static_cast<float>(i) / 8.f);
    pt.plan = Join(6, static_cast<float>(i % 3), 0.4f);
    pt.label = 10.0 + 100.0 * i;
    data.push_back(std::move(pt));
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 400;
  opts.val_fraction = 0;  // train on everything; no early stop
  opts.batch_size = 8;
  opts.lr = 5e-3;
  auto result = net.Train(data, opts);
  EXPECT_EQ(result.epochs_run, 400);
  // Predictions land within 30% of labels on this trivially small set.
  for (const TrainingPoint& pt : data) {
    double pred = net.Predict(pt.query, pt.plan);
    EXPECT_NEAR(pred, pt.label, pt.label * 0.3 + 10)
        << "label " << pt.label;
  }
}

TEST(ValueNetworkTest, EarlyStoppingHaltsBeforeMaxEpochs) {
  ValueNetwork net(SmallConfig());
  // Pure noise labels: validation loss cannot improve for long.
  std::vector<TrainingPoint> data;
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    TrainingPoint pt;
    pt.query = nn::Vec(4, static_cast<float>(rng.UniformDouble()));
    pt.plan = Leaf(6, static_cast<float>(rng.UniformDouble()));
    pt.label = rng.UniformDouble() * 1000;
    data.push_back(std::move(pt));
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 500;
  opts.patience = 2;
  auto result = net.Train(data, opts);
  EXPECT_LT(result.epochs_run, 500);
}

TEST(ValueNetworkTest, SgdSampleAccounting) {
  ValueNetwork net(SmallConfig());
  std::vector<TrainingPoint> data(10);
  for (auto& pt : data) {
    pt.query = nn::Vec(4, 0.1f);
    pt.plan = Leaf(6, 0.2f);
    pt.label = 5;
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 3;
  opts.val_fraction = 0;
  opts.patience = 1000;
  auto result = net.Train(data, opts);
  EXPECT_EQ(result.sgd_samples, 3 * 10);
}

TEST(ValueNetworkTest, CopyWeightsMakesPredictionsAgree) {
  ValueNetwork a(SmallConfig());
  ValueNetConfig cfg = SmallConfig();
  cfg.init_seed = 99;
  ValueNetwork b(cfg);
  nn::Vec q(4, 0.3f);
  auto plan = Join(6, 0.2f, 0.8f);
  EXPECT_NE(a.Predict(q, plan), b.Predict(q, plan));
  ASSERT_TRUE(b.CopyWeightsFrom(a).ok());
  EXPECT_EQ(a.Predict(q, plan), b.Predict(q, plan));
}

TEST(ValueNetworkTest, InitWeightsChangesPredictions) {
  ValueNetwork net(SmallConfig());
  nn::Vec q(4, 0.3f);
  auto plan = Join(6, 0.2f, 0.8f);
  double before = net.Predict(q, plan);
  net.InitWeights(12345);
  EXPECT_NE(net.Predict(q, plan), before);
}

TEST(ValueNetworkTest, SaveLoadRoundTrip) {
  ValueNetwork a(SmallConfig());
  ValueNetConfig cfg = SmallConfig();
  cfg.init_seed = 55;
  ValueNetwork b(cfg);
  std::string path = ::testing::TempDir() + "/value_net.bin";
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Load(path).ok());
  nn::Vec q(4, 0.4f);
  auto plan = Join(6, 0.7f, 0.1f);
  EXPECT_EQ(a.Predict(q, plan), b.Predict(q, plan));
}

TEST(ValueNetworkTest, SaveReportsAFailedWrite) {
  // /dev/full opens and takes buffered writes; the error shows only when
  // the buffer is flushed at close.
  std::ofstream probe("/dev/full");
  if (!probe.is_open()) GTEST_SKIP() << "no /dev/full on this system";
  ValueNetwork net(SmallConfig());
  const Status status = net.Save("/dev/full");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("/dev/full"), std::string::npos)
      << status.ToString();
}

// QueryTerm, ScoreRoots and ChildTerms read transposed copies of every
// layer's weights and biases (nn::RowNet). After each way the weights are
// written, incremental scoring of fresh leaves, of a join over two leaves
// and of a join over that join and a leaf equals the dense Predict bit for
// bit. Every copy feeds those scores: Wp of both layers and the head in
// each, Wl and Wr of both layers through the joins' child terms.
class TransposedWeightRefreshTest : public ::testing::Test {
 protected:
  static uint64_t Bits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }

  static nn::TreeSample Tree(std::vector<nn::Vec> features,
                             std::vector<int> left, std::vector<int> right) {
    nn::TreeSample t;
    t.features = std::move(features);
    t.left = std::move(left);
    t.right = std::move(right);
    return t;
  }

  static void ExpectScoreRootsMatchesPredict(const ValueNetwork& net) {
    // One-hot node features; the query has a zero slot.
    const nn::Vec q = {0.25f, 0.f, 0.75f, 1e-6f};
    const nn::Vec a = {1, 0, 0, 1, 0, 0};
    const nn::Vec b = {0, 1, 0, 0, 1, 0};
    const nn::Vec c = {0, 0, 0, 1, 0, 1};
    const nn::Vec join = {0, 0, 1, 1, 1, 0};
    const nn::Vec top = {0, 0, 1, 0, 1, 1};
    const nn::Vec term = testing::QueryTermOf(net, q);
    const size_t stride = static_cast<size_t>(net.row_layout().stride);
    std::vector<float> left(stride), right(stride), leaf(stride),
        joined_row(stride), root(stride);
    double left_score = 0, right_score = 0, leaf_score = 0, joined = 0,
           rooted = 0;
    net.ScoreRoots({{term.data(), a.data(), nullptr, nullptr, left.data(),
                     &left_score},
                    {term.data(), b.data(), nullptr, nullptr, right.data(),
                     &right_score},
                    {term.data(), c.data(), nullptr, nullptr, leaf.data(),
                     &leaf_score}});
    net.ChildTerms({{term.data(), a.data(), left.data(), 0},
                    {term.data(), b.data(), right.data(), 1},
                    {term.data(), c.data(), leaf.data(), 0}});
    net.ScoreRoots({{term.data(), join.data(), left.data(), right.data(),
                     joined_row.data(), &joined}});
    net.ChildTerms({{term.data(), join.data(), joined_row.data(), 1}});
    net.ScoreRoots({{term.data(), top.data(), leaf.data(), joined_row.data(),
                     root.data(), &rooted}});

    EXPECT_EQ(Bits(left_score), Bits(net.Predict(q, Tree({a}, {-1}, {-1}))));
    EXPECT_EQ(Bits(joined), Bits(net.Predict(q, Tree({join, a, b}, {1, -1, -1},
                                                     {2, -1, -1}))));
    EXPECT_EQ(Bits(rooted),
              Bits(net.Predict(q, Tree({top, c, join, a, b}, {1, -1, 3, -1, -1},
                                       {2, -1, 4, -1, -1}))));
  }
};

// A network trained for a few epochs from `seed`: fresh networks start
// with zero biases, so only trained ones tell a stale bias copy apart.
ValueNetwork TrainedNet(uint64_t seed) {
  ValueNetConfig config = SmallConfig();
  config.init_seed = seed;
  ValueNetwork net(config);
  std::vector<TrainingPoint> data;
  for (int i = 0; i < 20; ++i) {
    TrainingPoint pt;
    pt.query = nn::Vec(4, static_cast<float>(i) / 20.f);
    pt.plan = Join(6, static_cast<float>(i % 2), 1.f);
    pt.label = 10.0 + 50.0 * i + static_cast<double>(seed);
    data.push_back(std::move(pt));
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 5;
  opts.val_fraction = 0.2;  // ends with restoring the best weights
  net.Train(data, opts);
  return net;
}

TEST_F(TransposedWeightRefreshTest, AfterTrain) {
  ExpectScoreRootsMatchesPredict(TrainedNet(7));
}

TEST_F(TransposedWeightRefreshTest, AfterLoad) {
  ValueNetwork a = TrainedNet(7);
  ValueNetwork b = TrainedNet(55);
  const std::string path = ::testing::TempDir() + "/weight_refresh.bin";
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Load(path).ok());
  ExpectScoreRootsMatchesPredict(b);
}

TEST_F(TransposedWeightRefreshTest, AfterCopyWeightsFrom) {
  ValueNetwork a = TrainedNet(7);
  ValueNetwork b = TrainedNet(99);
  ASSERT_TRUE(b.CopyWeightsFrom(a).ok());
  ExpectScoreRootsMatchesPredict(b);
}

TEST_F(TransposedWeightRefreshTest, AfterInitWeights) {
  ValueNetwork net = TrainedNet(7);
  net.InitWeights(12345);
  ExpectScoreRootsMatchesPredict(net);
}

// A failed Load or CopyWeightsFrom changes nothing: not the weights (as Save
// writes them), nor the transposed copies incremental scoring reads.
std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

TEST_F(TransposedWeightRefreshTest, AFailedLoadChangesNothing) {
  const std::string dir = ::testing::TempDir();
  ValueNetConfig donor_config = SmallConfig();
  donor_config.init_seed = 55;
  ValueNetwork donor(donor_config);
  ASSERT_TRUE(donor.Save(dir + "/donor.bin").ok());
  const std::string good = FileBytes(dir + "/donor.bin");
  ASSERT_GT(good.size(), 16u);

  // Every parameter but the last loads, then the file ends.
  WriteBytes(dir + "/truncated.bin", good.substr(0, good.size() - 4));
  // A whole extra parameter's worth of bytes.
  WriteBytes(dir + "/trailing.bin", good + std::string(8, '\0'));
  // The same layers with a wider last hidden layer: fc1's shape differs.
  ValueNetConfig wide_config = SmallConfig();
  wide_config.mlp_hidden = 12;
  ValueNetwork wide(wide_config);
  ASSERT_TRUE(wide.Save(dir + "/wrong_shape.bin").ok());
  // A parameter count one too high.
  std::string wrong_count = good;
  uint64_t count = 0;
  std::memcpy(&count, wrong_count.data(), sizeof(count));
  ++count;
  std::memcpy(wrong_count.data(), &count, sizeof(count));
  WriteBytes(dir + "/wrong_count.bin", wrong_count);

  ValueNetwork net(SmallConfig());
  ASSERT_TRUE(net.Save(dir + "/before.bin").ok());
  const std::string before = FileBytes(dir + "/before.bin");
  for (const char* bad : {"truncated.bin", "trailing.bin", "wrong_shape.bin",
                          "wrong_count.bin"}) {
    EXPECT_FALSE(net.Load(dir + "/" + bad).ok()) << bad;
    ASSERT_TRUE(net.Save(dir + "/after.bin").ok());
    EXPECT_EQ(FileBytes(dir + "/after.bin"), before) << bad;
    ExpectScoreRootsMatchesPredict(net);
  }
  // The good file still loads.
  ASSERT_TRUE(net.Load(dir + "/donor.bin").ok());
  ASSERT_TRUE(net.Save(dir + "/after.bin").ok());
  EXPECT_EQ(FileBytes(dir + "/after.bin"), good);
}

TEST_F(TransposedWeightRefreshTest, AFailedCopyChangesNothing) {
  const std::string dir = ::testing::TempDir();
  // The tree-conv layers match in shape; fc1's does not.
  ValueNetConfig wide_config = SmallConfig();
  wide_config.mlp_hidden = 12;
  wide_config.init_seed = 55;
  const ValueNetwork wide(wide_config);
  ValueNetwork net(SmallConfig());
  ASSERT_TRUE(net.Save(dir + "/copy_before.bin").ok());
  EXPECT_FALSE(net.CopyWeightsFrom(wide).ok());
  ASSERT_TRUE(net.Save(dir + "/copy_after.bin").ok());
  EXPECT_EQ(FileBytes(dir + "/copy_after.bin"),
            FileBytes(dir + "/copy_before.bin"));
  ExpectScoreRootsMatchesPredict(net);
}

// ForwardBatch against the per-item Predict over ragged batches (1, 2, 3,
// ... items) of mixed sizes, each item with its own query, on a trained
// network: leaves, joins of two leaves, left-deep ((a b) c) d and
// (a b) (c d), whose root has join children on both sides.
TEST(ValueNetworkTest, ForwardBatchMatchesPredictOnRaggedBatches) {
  const ValueNetwork net = TrainedNet(11);
  const ValueNetConfig& config = net.config();
  Rng rng(5);
  auto features = [&] {
    nn::Vec v(static_cast<size_t>(config.node_dim), 0.f);
    v[rng.Uniform(v.size())] = 1.f;
    v[rng.Uniform(v.size())] = static_cast<float>(rng.UniformDouble());
    return v;
  };
  std::vector<nn::Vec> queries;
  std::vector<nn::TreeSample> plans;
  for (int i = 0; i < 30; ++i) {
    nn::Vec query(static_cast<size_t>(config.query_dim));
    for (float& v : query) {
      v = rng.Uniform(3) == 0 ? 0.f : static_cast<float>(rng.UniformDouble());
    }
    queries.push_back(query);
    nn::TreeSample t;
    switch (i % 4) {
      case 0:
        t.left = {-1};
        t.right = {-1};
        break;
      case 1:
        t.left = {1, -1, -1};
        t.right = {2, -1, -1};
        break;
      case 2:  // preorder: root, abc, ab, a, b, c, d
        t.left = {1, 2, 3, -1, -1, -1, -1};
        t.right = {6, 5, 4, -1, -1, -1, -1};
        break;
      default:  // preorder: root, ab, a, b, cd, c, d
        t.left = {1, 2, -1, -1, 5, -1, -1};
        t.right = {4, 3, -1, -1, 6, -1, -1};
    }
    for (size_t n = 0; n < t.left.size(); ++n) t.features.push_back(features());
    plans.push_back(std::move(t));
  }
  size_t pos = 0;
  for (size_t size = 1; pos < plans.size(); ++size) {
    const size_t end = std::min(pos + size, plans.size());
    std::vector<const nn::Vec*> batch_queries;
    std::vector<const nn::TreeSample*> batch_plans;
    for (size_t i = pos; i < end; ++i) {
      batch_queries.push_back(&queries[i]);
      batch_plans.push_back(&plans[i]);
    }
    const std::vector<double> got = net.ForwardBatch(batch_queries,
                                                     batch_plans);
    ASSERT_EQ(got.size(), end - pos);
    for (size_t i = pos; i < end; ++i) {
      EXPECT_EQ(got[i - pos], net.Predict(queries[i], plans[i]))
          << "item " << i << " in a batch of " << end - pos;
    }
    pos = end;
  }
}

// ---------------------------------------------------------------------------
// Bitwise training equivalence. ReferenceTrainer is a frozen copy of the
// per-sample trainer that ValueNetwork::Train replaced: one forward pass and
// one backward pass per (plan, node) sample, over per-node vectors, with the
// same Rng layer init, shuffles, Adam and early stopping. Train stacks each
// minibatch into matrices; the trained weights must not change by a bit.

class ReferenceTrainer {
 public:
  explicit ReferenceTrainer(const ValueNetConfig& config) : config_(config) {
    Rng rng(config.init_seed);
    const int in = config.query_dim + config.node_dim;
    tc1_ = nn::TreeConvLayer(in, config.tree_hidden1, &rng);
    tc2_ = nn::TreeConvLayer(config.tree_hidden1, config.tree_hidden2, &rng);
    fc1_ = nn::Linear(config.tree_hidden2, config.mlp_hidden, &rng);
    fc2_ = nn::Linear(config.mlp_hidden, 1, &rng);
    tc1_.CollectParams(&params_);
    tc2_.CollectParams(&params_);
    fc1_.CollectParams(&params_);
    fc2_.CollectParams(&params_);
  }

  std::string SavedBytes(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    EXPECT_TRUE(nn::SaveParams(params_, path).ok());
    return FileBytes(path);
  }

  ValueNetwork::TrainResult Train(const std::vector<TrainingPoint>& data,
                                  const ValueNetwork::TrainOptions& options) {
    ValueNetwork::TrainResult result;
    if (data.empty()) return result;
    std::vector<int> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(options.shuffle_seed);
    rng.Shuffle(&order);
    size_t num_val = static_cast<size_t>(
        static_cast<double>(data.size()) * options.val_fraction);
    num_val = std::min(num_val, data.size() - 1);
    std::vector<int> val(order.begin(), order.begin() + num_val);
    std::vector<int> train(order.begin() + num_val, order.end());

    nn::Adam adam(params_, options.lr);
    auto eval_loss = [&](const std::vector<int>& idx) {
      if (idx.empty()) return 0.0;
      double total = 0;
      for (int i : idx) {
        double z = ToLabelSpace(data[i].label);
        Acts acts;
        double pred = Forward(data[i].query, data[i].plan, &acts);
        total += (pred - z) * (pred - z);
      }
      return total / static_cast<double>(idx.size());
    };

    double best_val = std::numeric_limits<double>::infinity();
    int stale_epochs = 0;
    std::vector<nn::Mat> best_weights;
    for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
      rng.Shuffle(&train);
      double epoch_loss = 0;
      size_t pos = 0;
      while (pos < train.size()) {
        size_t batch_end = std::min(
            pos + static_cast<size_t>(options.batch_size), train.size());
        int batch = static_cast<int>(batch_end - pos);
        for (size_t b = pos; b < batch_end; ++b) {
          const TrainingPoint& pt = data[train[b]];
          Acts acts;
          double pred = Forward(pt.query, pt.plan, &acts);
          double residual = pred - ToLabelSpace(pt.label);
          epoch_loss += residual * residual;
          Backward(pt.plan, acts, 2.0 * residual);
        }
        adam.Step(batch);
        result.sgd_samples += batch;
        pos = batch_end;
      }
      result.epochs_run = epoch + 1;
      result.final_train_loss =
          epoch_loss / static_cast<double>(std::max<size_t>(1, train.size()));
      if (!val.empty()) {
        double val_loss = eval_loss(val);
        if (val_loss < best_val - 1e-9) {
          best_val = val_loss;
          stale_epochs = 0;
          best_weights.clear();
          for (nn::Param* p : params_) best_weights.push_back(p->value);
        } else if (epoch + 1 >= options.min_epochs &&
                   ++stale_epochs >= options.patience) {
          break;
        }
      }
    }
    if (!val.empty() && !best_weights.empty()) {
      for (size_t i = 0; i < params_.size(); ++i) {
        params_[i]->value = best_weights[i];
      }
    }
    result.best_val_loss = val.empty() ? result.final_train_loss : best_val;
    return result;
  }

 private:
  struct Acts {
    std::vector<nn::Vec> inputs, h1, h2;
    nn::Vec pooled, m1, out;
    std::vector<int> argmax;
  };

  static void MatTVec(const nn::Mat& w, const nn::Vec& dy, nn::Vec* dx) {
    for (int r = 0; r < w.rows; ++r) {
      const float* row = &w.data[static_cast<size_t>(r) * w.cols];
      float d = dy[r];
      if (d == 0) continue;
      for (int c = 0; c < w.cols; ++c) (*dx)[c] += row[c] * d;
    }
  }

  static void OuterAcc(const nn::Vec& dy, const nn::Vec& x, nn::Mat* dw) {
    for (int r = 0; r < dw->rows; ++r) {
      float d = dy[r];
      if (d == 0) continue;
      float* row = &dw->data[static_cast<size_t>(r) * dw->cols];
      for (int c = 0; c < dw->cols; ++c) row[c] += d * x[c];
    }
  }

  static void ReluBackward(const nn::Vec& y, nn::Vec* dy) {
    for (size_t i = 0; i < y.size(); ++i) {
      if (y[i] <= 0) (*dy)[i] = 0;
    }
  }

  // params: w, b.
  static void LinearBackward(nn::Linear* layer, const nn::Vec& x,
                             const nn::Vec& dy, nn::Vec* dx) {
    OuterAcc(dy, x, &layer->w().grad);
    for (int r = 0; r < layer->b().grad.rows; ++r) {
      layer->b().grad.at(r, 0) += dy[r];
    }
    if (dx) MatTVec(layer->w().value, dy, dx);
  }

  // params: wp, wl, wr, b.
  static void TreeConvBackward(nn::TreeConvLayer* layer,
                               const std::vector<nn::Vec>& in,
                               const nn::TreeSample& plan,
                               const std::vector<nn::Vec>& dout,
                               std::vector<nn::Vec>* din) {
    std::vector<nn::Param*> p;
    layer->CollectParams(&p);
    const int n = static_cast<int>(in.size());
    if (din) din->assign(n, nn::Vec(static_cast<size_t>(layer->in_dim()), 0.f));
    for (int i = 0; i < n; ++i) {
      const nn::Vec& dy = dout[i];
      OuterAcc(dy, in[i], &p[0]->grad);
      if (din) MatTVec(p[0]->value, dy, &(*din)[i]);
      if (plan.left[i] >= 0) {
        OuterAcc(dy, in[plan.left[i]], &p[1]->grad);
        if (din) MatTVec(p[1]->value, dy, &(*din)[plan.left[i]]);
      }
      if (plan.right[i] >= 0) {
        OuterAcc(dy, in[plan.right[i]], &p[2]->grad);
        if (din) MatTVec(p[2]->value, dy, &(*din)[plan.right[i]]);
      }
      for (int r = 0; r < p[3]->grad.rows; ++r) p[3]->grad.at(r, 0) += dy[r];
    }
  }

  double ToLabelSpace(double y) const {
    return std::log1p(std::max(0.0, y));
  }

  double Forward(const nn::Vec& query, const nn::TreeSample& plan,
                 Acts* a) const {
    const size_t n = plan.features.size();
    a->inputs.resize(n);
    for (size_t i = 0; i < n; ++i) {
      a->inputs[i] = query;
      a->inputs[i].insert(a->inputs[i].end(), plan.features[i].begin(),
                          plan.features[i].end());
    }
    tc1_.Forward(a->inputs, plan.left, plan.right, &a->h1);
    for (auto& v : a->h1) nn::ReluForward(&v);
    tc2_.Forward(a->h1, plan.left, plan.right, &a->h2);
    for (auto& v : a->h2) nn::ReluForward(&v);
    const size_t dim = a->h2[0].size();
    a->pooled.assign(dim, -1e30f);
    a->argmax.assign(dim, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        if (a->h2[i][d] > a->pooled[d]) {
          a->pooled[d] = a->h2[i][d];
          a->argmax[d] = static_cast<int>(i);
        }
      }
    }
    fc1_.Forward(a->pooled, &a->m1);
    nn::ReluForward(&a->m1);
    fc2_.Forward(a->m1, &a->out);
    return a->out[0];
  }

  void Backward(const nn::TreeSample& plan, const Acts& a, double dout) {
    nn::Vec dy_out{static_cast<float>(dout)};
    nn::Vec dm1(a.m1.size(), 0.f);
    LinearBackward(&fc2_, a.m1, dy_out, &dm1);
    ReluBackward(a.m1, &dm1);
    nn::Vec dpooled(a.pooled.size(), 0.f);
    LinearBackward(&fc1_, a.pooled, dm1, &dpooled);
    std::vector<nn::Vec> dh2(a.h2.size(), nn::Vec(a.pooled.size(), 0.f));
    for (size_t d = 0; d < dpooled.size(); ++d) {
      dh2[a.argmax[d]][d] += dpooled[d];
    }
    for (size_t i = 0; i < dh2.size(); ++i) ReluBackward(a.h2[i], &dh2[i]);
    std::vector<nn::Vec> dh1;
    TreeConvBackward(&tc2_, a.h1, plan, dh2, &dh1);
    for (size_t i = 0; i < dh1.size(); ++i) ReluBackward(a.h1[i], &dh1[i]);
    TreeConvBackward(&tc1_, a.inputs, plan, dh1, nullptr);
  }

  ValueNetConfig config_;
  nn::TreeConvLayer tc1_, tc2_;
  nn::Linear fc1_, fc2_;
  std::vector<nn::Param*> params_;
};

class TrainBitwiseTest : public ::testing::Test {
 protected:
  TrainBitwiseTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        featurizer_(&fixture_.schema(), fixture_.estimator.get()),
        cout_(fixture_.estimator, &fixture_.schema()) {}

  ValueNetConfig Config() const {
    ValueNetConfig config;
    config.query_dim = featurizer_.query_dim();
    config.node_dim = featurizer_.node_dim();
    config.init_seed = 17;
    return config;
  }

  // Augmented simulator points of the star query: every subtree of every
  // enumerated plan (all physical operators), so subtree sizes range from
  // one node to the full bushy or left-deep plan.
  std::vector<TrainingPoint> SimulationData(size_t max_points) const {
    SimulationOptions options;
    options.max_points_per_query = max_points;
    options.canonical_operators_only = false;
    options.num_threads = 1;
    auto data = CollectSimulationData({&query_}, fixture_.schema(), cout_,
                                      featurizer_, options);
    BALSA_CHECK(data.ok(), data.status().ToString());
    return std::move(data).value();
  }

  // Trains a ValueNetwork and the reference on the same data, in the same
  // sequence of Train calls, and expects equal results and weight bytes
  // after each call.
  void ExpectSameTraining(
      const ValueNetConfig& config,
      const std::vector<std::pair<std::vector<TrainingPoint>,
                                  ValueNetwork::TrainOptions>>& runs) {
    ValueNetwork net(config);
    ReferenceTrainer ref(config);
    const std::string path = ::testing::TempDir() + "/bitwise_net.bin";
    ASSERT_TRUE(net.Save(path).ok());
    ASSERT_EQ(FileBytes(path), ref.SavedBytes("bitwise_ref.bin"));
    for (size_t i = 0; i < runs.size(); ++i) {
      ValueNetwork::TrainResult got = net.Train(runs[i].first, runs[i].second);
      ValueNetwork::TrainResult want = ref.Train(runs[i].first, runs[i].second);
      EXPECT_EQ(got.epochs_run, want.epochs_run) << "run " << i;
      EXPECT_EQ(got.final_train_loss, want.final_train_loss) << "run " << i;
      EXPECT_EQ(got.best_val_loss, want.best_val_loss) << "run " << i;
      EXPECT_EQ(got.sgd_samples, want.sgd_samples) << "run " << i;
      ASSERT_TRUE(net.Save(path).ok());
      EXPECT_TRUE(FileBytes(path) == ref.SavedBytes("bitwise_ref.bin"))
          << "weights differ after run " << i;
    }
  }

  testing::StarFixture fixture_;
  Query query_;
  Featurizer featurizer_;
  CoutCostModel cout_;
};

TEST_F(TrainBitwiseTest, SimulationBootstrapThenFineTune) {
  std::vector<TrainingPoint> sim = SimulationData(400);
  ASSERT_EQ(sim.size(), 400u);
  size_t min_nodes = 1000, max_nodes = 0;
  for (const TrainingPoint& pt : sim) {
    min_nodes = std::min(min_nodes, pt.plan.features.size());
    max_nodes = std::max(max_nodes, pt.plan.features.size());
  }
  EXPECT_EQ(min_nodes, 1u);
  EXPECT_EQ(max_nodes, 7u);  // a full 4-way plan

  // Bootstrap with a 10% validation split: 360 training points make five
  // full minibatches and a ragged one of 40.
  ValueNetwork::TrainOptions boot;
  boot.max_epochs = 5;
  // Fine-tune on a slice with its own shuffle, without validation, in
  // minibatches of 48 (ragged: 150 = 3 * 48 + 6).
  std::vector<TrainingPoint> slice(sim.begin() + 100, sim.begin() + 250);
  for (TrainingPoint& pt : slice) pt.label *= 0.5;
  ValueNetwork::TrainOptions tune;
  tune.max_epochs = 3;
  tune.val_fraction = 0;
  tune.batch_size = 48;
  tune.shuffle_seed = 9;
  ExpectSameTraining(Config(), {{sim, boot}, {slice, tune}});
}

TEST_F(TrainBitwiseTest, EarlyStoppingRestoresBestWeights) {
  // Noise labels over hand-built plans, including (a b) (c d), whose root
  // has join children on both sides: validation loss soon stops improving,
  // so training stops early and restores an earlier epoch's weights.
  const int qd = featurizer_.query_dim();
  const int nd = featurizer_.node_dim();
  nn::TreeSample bushy;
  for (int i = 0; i < 7; ++i) {
    bushy.features.push_back(nn::Vec(static_cast<size_t>(nd), 0.1f * i));
  }
  bushy.left = {1, 2, -1, -1, 5, -1, -1};
  bushy.right = {4, 3, -1, -1, 6, -1, -1};
  Rng rng(21);
  std::vector<TrainingPoint> data;
  for (int i = 0; i < 150; ++i) {
    TrainingPoint pt;
    pt.query = nn::Vec(static_cast<size_t>(qd),
                       static_cast<float>(rng.UniformDouble()));
    pt.plan = i % 3 == 0 ? bushy
                         : (i % 3 == 1 ? Join(nd, 0.3f, 0.8f)
                                       : Leaf(nd, static_cast<float>(i) / 150));
    pt.plan.features[0][0] = static_cast<float>(rng.UniformDouble());
    pt.label = rng.UniformDouble() * 1000;
    data.push_back(std::move(pt));
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 200;
  opts.patience = 2;
  opts.val_fraction = 0.2;
  opts.batch_size = 16;
  ValueNetwork probe(Config());
  ASSERT_LT(probe.Train(data, opts).epochs_run, opts.max_epochs);
  ExpectSameTraining(Config(), {{data, opts}});
}

TEST_F(TrainBitwiseTest, TiedMaximaGoToTheFirstNode) {
  // Joins of twin leaves: the leaves' layer-2 outputs are equal, so where
  // they beat the root, the pooled maximum is a positive tie and only the
  // rule that the first node in preorder takes its gradient matches the
  // reference (zero ties do not show: ReLU gates their gradient anyway).
  const int qd = featurizer_.query_dim();
  const int nd = featurizer_.node_dim();
  Rng rng(23);
  std::vector<TrainingPoint> data;
  for (int i = 0; i < 60; ++i) {
    TrainingPoint pt;
    pt.query = nn::Vec(static_cast<size_t>(qd),
                       static_cast<float>(rng.UniformDouble()));
    const float leaf = static_cast<float>(rng.UniformDouble());
    pt.plan = Join(nd, leaf, leaf);
    pt.label = rng.UniformDouble() * 1000;
    data.push_back(std::move(pt));
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 3;
  opts.batch_size = 16;
  ExpectSameTraining(Config(), {{data, opts}});
}

}  // namespace
}  // namespace balsa
