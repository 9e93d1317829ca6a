#include "src/nn/nn.h"

#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

namespace balsa::nn {
namespace {

// Central finite difference of a scalar function of one weight.
template <typename Fn>
double NumericalGrad(float* weight, Fn&& loss, double eps = 1e-3) {
  float saved = *weight;
  *weight = static_cast<float>(saved + eps);
  double up = loss();
  *weight = static_cast<float>(saved - eps);
  double down = loss();
  *weight = saved;
  return (up - down) / (2 * eps);
}

TEST(MatTest, Layout) {
  Mat m(2, 3);
  m.at(1, 2) = 5.f;
  EXPECT_EQ(m.data[1 * 3 + 2], 5.f);
  m.Zero();
  EXPECT_EQ(m.at(1, 2), 0.f);
}

TEST(MatVecTest, MatchesManual) {
  Mat w(2, 3);
  // w = [[1,2,3],[4,5,6]]
  for (int i = 0; i < 6; ++i) w.data[i] = static_cast<float>(i + 1);
  Vec x{1.f, 0.f, -1.f};
  Vec y(2, 0.f);
  MatVec(w, x, &y);
  EXPECT_FLOAT_EQ(y[0], 1 - 3);
  EXPECT_FLOAT_EQ(y[1], 4 - 6);
}

TEST(LinearTest, GradCheck) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Vec x{0.5f, -1.f, 2.f, 0.1f};

  auto loss = [&] {
    Vec y(3, 0.f);
    layer.Forward(x, &y);
    double l = 0;
    for (float v : y) l += v * v;
    return l;
  };

  // Analytic gradient.
  Vec y(3, 0.f);
  layer.Forward(x, &y);
  Vec dy(3);
  for (int i = 0; i < 3; ++i) dy[i] = 2 * y[i];
  Vec dx(4, 0.f);
  layer.w().ZeroGrad();
  layer.b().ZeroGrad();
  layer.Backward(x, dy, &dx);

  // Check a few weights, the bias, and the input gradient.
  for (int idx : {0, 5, 11}) {
    double num = NumericalGrad(&layer.w().value.data[idx], loss);
    EXPECT_NEAR(layer.w().grad.data[idx], num, 1e-2 + std::abs(num) * 0.05)
        << "w[" << idx << "]";
  }
  double num_b = NumericalGrad(&layer.b().value.data[1], loss);
  EXPECT_NEAR(layer.b().grad.data[1], num_b, 1e-2 + std::abs(num_b) * 0.05);

  for (int i = 0; i < 4; ++i) {
    float saved = x[i];
    auto loss_x = [&] {
      Vec yy(3, 0.f);
      layer.Forward(x, &yy);
      double l = 0;
      for (float v : yy) l += v * v;
      return l;
    };
    x[i] = saved + 1e-3f;
    double up = loss_x();
    x[i] = saved - 1e-3f;
    double down = loss_x();
    x[i] = saved;
    EXPECT_NEAR(dx[i], (up - down) / 2e-3, 1e-2 + std::abs(dx[i]) * 0.05);
  }
}

TreeSample ThreeNodeTree(int dim) {
  // node0 = root(join), children node1, node2.
  TreeSample t;
  t.features = {Vec(dim, 0.3f), Vec(dim, -0.2f), Vec(dim, 0.9f)};
  t.left = {1, -1, -1};
  t.right = {2, -1, -1};
  return t;
}

TEST(TreeConvTest, MissingChildrenContributeZero) {
  Rng rng(2);
  TreeConvLayer layer(3, 2, &rng);
  TreeSample t = ThreeNodeTree(3);
  std::vector<Vec> out;
  layer.Forward(t.features, t.left, t.right, &out);
  ASSERT_EQ(out.size(), 3u);
  // A leaf's output depends only on Wp f + b (no child terms): computing
  // with zeroed children features must agree.
  std::vector<Vec> leaf_only{t.features[1]};
  std::vector<int> none{-1};
  std::vector<Vec> out_leaf;
  layer.Forward(leaf_only, none, none, &out_leaf);
  for (size_t i = 0; i < out_leaf[0].size(); ++i) {
    EXPECT_FLOAT_EQ(out[1][i], out_leaf[0][i]);
  }
}

TEST(TreeConvTest, ChildTermsReproduceForwardBitwise) {
  // ForwardWithTerms over ChildTerm products, whether the terms sit in a
  // ChildTerm matrix or in per-column vectors (stride 1), equals Forward
  // bit for bit.
  Rng rng(4);
  TreeConvLayer layer(3, 5, &rng);
  TreeSample t = ThreeNodeTree(3);
  std::vector<Vec> want;
  layer.Forward(t.features, t.left, t.right, &want);

  Mat x(3, 3);
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < 3; ++r) x.at(r, c) = t.features[c][r];
  }
  Mat batched;
  layer.ForwardBatch(x, t.left, t.right, &batched);

  // Column 0's children, one per side, as standalone stride-1 vectors.
  std::vector<Vec> terms;
  for (int side : {0, 1}) {
    Mat child(3, 1);
    const Vec& f = t.features[side == 0 ? t.left[0] : t.right[0]];
    for (int r = 0; r < 3; ++r) child.at(r, 0) = f[r];
    terms.push_back(layer.ChildTerm(side, child).data);
  }
  TermColumns left{{terms[0].data(), nullptr, nullptr}, 1};
  TermColumns right{{terms[1].data(), nullptr, nullptr}, 1};
  Mat cached;
  layer.ForwardWithTerms(x, left, right, &cached);
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(batched.at(r, c), want[c][r]) << r << "," << c;
      EXPECT_EQ(cached.at(r, c), want[c][r]) << r << "," << c;
    }
  }
}

TEST(TreeConvTest, GradCheck) {
  Rng rng(3);
  TreeConvLayer layer(3, 2, &rng);
  TreeSample t = ThreeNodeTree(3);

  auto loss = [&] {
    std::vector<Vec> out;
    layer.Forward(t.features, t.left, t.right, &out);
    double l = 0;
    for (const Vec& node : out) {
      for (float v : node) l += v * v;
    }
    return l;
  };

  std::vector<Param*> params;
  layer.CollectParams(&params);
  for (Param* p : params) p->ZeroGrad();

  std::vector<Vec> out;
  layer.Forward(t.features, t.left, t.right, &out);
  std::vector<Vec> dout(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    dout[i].resize(out[i].size());
    for (size_t j = 0; j < out[i].size(); ++j) dout[i][j] = 2 * out[i][j];
  }
  std::vector<Vec> din(t.features.size(), Vec(3, 0.f));
  layer.Backward(t.features, t.left, t.right, dout, &din);

  for (Param* p : params) {
    for (size_t idx = 0; idx < std::min<size_t>(4, p->value.data.size());
         ++idx) {
      double num = NumericalGrad(&p->value.data[idx], loss);
      EXPECT_NEAR(p->grad.data[idx], num, 1e-2 + std::abs(num) * 0.05);
    }
  }
}

TEST(PoolTest, MaxPoolAndBackward) {
  std::vector<Vec> nodes{{1.f, -5.f}, {0.f, 2.f}, {3.f, 0.f}};
  Vec out;
  std::vector<int> argmax;
  DynamicMaxPool(nodes, &out, &argmax);
  EXPECT_FLOAT_EQ(out[0], 3.f);
  EXPECT_FLOAT_EQ(out[1], 2.f);
  EXPECT_EQ(argmax[0], 2);
  EXPECT_EQ(argmax[1], 1);

  Vec dout{1.f, 10.f};
  std::vector<Vec> dnodes(3, Vec(2, 0.f));
  DynamicMaxPoolBackward(dout, argmax, &dnodes);
  EXPECT_FLOAT_EQ(dnodes[2][0], 1.f);
  EXPECT_FLOAT_EQ(dnodes[1][1], 10.f);
  EXPECT_FLOAT_EQ(dnodes[0][0], 0.f);
}

TEST(ReluTest, ForwardBackward) {
  Vec x{-1.f, 0.f, 2.f};
  ReluForward(&x);
  EXPECT_FLOAT_EQ(x[0], 0.f);
  EXPECT_FLOAT_EQ(x[2], 2.f);
  Vec dy{5.f, 5.f, 5.f};
  ReluBackward(x, &dy);
  EXPECT_FLOAT_EQ(dy[0], 0.f);  // gradient gated by post-activation
  EXPECT_FLOAT_EQ(dy[2], 5.f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 with Adam.
  Param w(1, 1);
  w.value.data[0] = 0.f;
  Adam::Options opts;
  opts.lr = 0.1;
  Adam adam({&w}, opts);
  for (int step = 0; step < 300; ++step) {
    w.grad.data[0] = 2 * (w.value.data[0] - 3.f);
    adam.Step(1);
  }
  EXPECT_NEAR(w.value.data[0], 3.f, 0.05);
  EXPECT_EQ(adam.num_steps(), 300);
}

TEST(AdamTest, GradClipBoundsUpdates) {
  Param w(1, 1);
  Adam::Options opts;
  opts.lr = 0.001;
  opts.grad_clip = 1.0;
  Adam adam({&w}, opts);
  w.grad.data[0] = 1e6f;  // absurd gradient
  adam.Step(1);
  // Clipped: the first Adam step is bounded by lr regardless of magnitude.
  EXPECT_LT(std::abs(w.value.data[0]), 0.01f);
}

TEST(ParamIoTest, SaveLoadRoundTrip) {
  Rng rng(4);
  Linear a(3, 2, &rng), b(3, 2, &rng);
  std::vector<Param*> pa, pb;
  a.CollectParams(&pa);
  b.CollectParams(&pb);
  std::string path = ::testing::TempDir() + "/params.bin";
  ASSERT_TRUE(SaveParams(pa, path).ok());
  ASSERT_TRUE(LoadParams(pb, path).ok());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.data, pb[i]->value.data);
  }
}

TEST(ParamIoTest, CopyParams) {
  Rng rng(5);
  Linear a(3, 2, &rng), b(3, 2, &rng);
  std::vector<Param*> pa, pb;
  a.CollectParams(&pa);
  b.CollectParams(&pb);
  EXPECT_NE(pa[0]->value.data, pb[0]->value.data);
  ASSERT_TRUE(CopyParams(pa, pb).ok());
  EXPECT_EQ(pa[0]->value.data, pb[0]->value.data);
}

TEST(ParamIoTest, LoadRejectsShapeMismatch) {
  Rng rng(6);
  Linear a(3, 2, &rng);
  Linear c(5, 2, &rng);
  std::vector<Param*> pa, pc;
  a.CollectParams(&pa);
  c.CollectParams(&pc);
  std::string path = ::testing::TempDir() + "/params2.bin";
  ASSERT_TRUE(SaveParams(pa, path).ok());
  EXPECT_FALSE(LoadParams(pc, path).ok());
}

}  // namespace
}  // namespace balsa::nn
