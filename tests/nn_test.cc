#include "src/nn/nn.h"

#include <cmath>
#include <cstdio>
#include <cstring>

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

// Fills a matrix with values in [-1, 1).
Mat RandomMat(int rows, int cols, Rng* rng) {
  Mat m(rows, cols);
  for (float& v : m.data) v = static_cast<float>(rng->UniformDouble() * 2 - 1);
  return m;
}

// GatherAdd from +0 over a query prefix, then continued over a node tail,
// against AddMatMul from a zeroed y over the same columns. memcmp, since
// EXPECT_EQ would equate -0 with +0.
TEST(GatherAddTest, MatchesAddMatMulFromZeroBitwise) {
  Rng rng(17);
  const int qd = 21, nd = 27;
  const float tail[] = {0.f, 1.f, -0.f, 0.5f};
  for (int rows : {1, 7, 32, 37}) {
    for (int trial = 0; trial < 20; ++trial) {
      Mat w = RandomMat(rows, qd + nd, &rng);
      Mat x(qd + nd, 1);
      for (int c = 0; c < qd; ++c) {
        x.at(c, 0) =
            rng.Uniform(3) == 0 ? 0.f : static_cast<float>(rng.UniformDouble());
      }
      for (int c = qd; c < qd + nd; ++c) x.at(c, 0) = tail[rng.Uniform(4)];
      Mat wq(rows, qd), xq(qd, 1);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < qd; ++c) wq.at(r, c) = w.at(r, c);
      }
      for (int c = 0; c < qd; ++c) xq.at(c, 0) = x.at(c, 0);
      Mat want_query(rows, 1), want(rows, 1);
      AddMatMul(wq, xq, &want_query);
      AddMatMul(w, x, &want);

      const Mat wt = Transpose(w);
      const size_t bytes = sizeof(float) * static_cast<size_t>(rows);
      Vec got(static_cast<size_t>(rows), 0.f);
      GatherAdd(wt, 0, x.data.data(), qd, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want_query.data.data(), bytes), 0)
          << rows << " rows, trial " << trial;
      GatherAdd(wt, qd, x.data.data() + qd, nd, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data.data(), bytes), 0)
          << rows << " rows, trial " << trial;
    }
  }
}

// A sum that cancels to zero is +0, so the -0 products GatherAdd skips
// (0.25 * -0 and -0.25 * 0) leave it +0, as adding them does in AddMatMul.
TEST(GatherAddTest, SkippedZerosKeepACancelledSumPositive) {
  Mat w(1, 4);
  w.data = {0.5f, -0.5f, 0.25f, -0.25f};
  Mat x(4, 1);
  x.data = {1.f, 1.f, -0.f, 0.f};
  Mat want(1, 1);
  AddMatMul(w, x, &want);
  Vec got(1, 0.f);
  GatherAdd(Transpose(w), 0, x.data.data(), 4, got.data());
  EXPECT_FALSE(std::signbit(want.data[0]));
  EXPECT_EQ(std::memcmp(got.data(), want.data.data(), sizeof(float)), 0);
}

double SumSquares(const Mat& m) {
  double l = 0;
  for (float v : m.data) l += static_cast<double>(v) * v;
  return l;
}

// Checks d(loss)/d(value) against `analytic` for a few entries of `values`.
template <typename Fn>
void ExpectGradsMatch(std::vector<float>* values,
                      const std::vector<float>& analytic, Fn&& loss,
                      const std::string& what) {
  for (size_t idx = 0; idx < values->size(); idx += 3) {
    double num = NumericalGrad(&(*values)[idx], loss);
    EXPECT_NEAR(analytic[idx], num, 1e-2 + std::abs(num) * 0.05)
        << what << "[" << idx << "]";
  }
}

TEST(LinearTest, GradCheck) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Mat x = RandomMat(4, 3, &rng);  // three columns

  auto loss = [&] {
    Mat y;
    layer.ForwardBatch(x, &y);
    return SumSquares(y);
  };

  Mat y;
  layer.ForwardBatch(x, &y);
  Mat dy = y;
  for (float& v : dy.data) v *= 2;
  Mat dxt;
  layer.w().ZeroGrad();
  layer.b().ZeroGrad();
  layer.BackwardBatch(Transpose(x), Transpose(dy), &dxt);
  ASSERT_EQ(dxt.rows, 3);
  ASSERT_EQ(dxt.cols, 4);

  ExpectGradsMatch(&layer.w().value.data, layer.w().grad.data, loss, "w");
  ExpectGradsMatch(&layer.b().value.data, layer.b().grad.data, loss, "b");
  ExpectGradsMatch(&x.data, Transpose(dxt).data, loss, "x");
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
    Mat term;
    layer.ChildTerm(side, child, &term);
    terms.push_back(term.data);
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
  // Two trees stacked as one column batch, each in preorder: (a b) (c d),
  // whose root has join children on both sides, and a leaf.
  struct {
    std::vector<int> left{1, 2, -1, -1, 5, -1, -1, -1};
    std::vector<int> right{4, 3, -1, -1, 6, -1, -1, -1};
  } t;
  Mat x = RandomMat(3, 8, &rng);

  auto loss = [&] {
    Mat out;
    layer.ForwardBatch(x, t.left, t.right, &out);
    return SumSquares(out);
  };

  std::vector<Param*> params;
  layer.CollectParams(&params);
  for (Param* p : params) p->ZeroGrad();

  Mat out;
  layer.ForwardBatch(x, t.left, t.right, &out);
  Mat dout = out;
  for (float& v : dout.data) v *= 2;
  Mat dxt;
  layer.BackwardBatch(Transpose(x), t.left, t.right, Transpose(dout), &dxt);

  const char* names[] = {"wp", "wl", "wr", "b"};
  for (size_t i = 0; i < params.size(); ++i) {
    ExpectGradsMatch(&params[i]->value.data, params[i]->grad.data, loss,
                     names[i]);
  }
  // A child's input gradient has its parent's term and its own.
  ExpectGradsMatch(&x.data, Transpose(dxt).data, loss, "x");
}

// Frozen per-vector kernels: the per-sample backward that the batched
// kernels must reproduce bit for bit.
void SeqMatTVec(const Mat& w, const Vec& dy, Vec* dx) {
  for (int r = 0; r < w.rows; ++r) {
    const float* row = &w.data[static_cast<size_t>(r) * w.cols];
    float d = dy[r];
    if (d == 0) continue;
    for (int c = 0; c < w.cols; ++c) (*dx)[c] += row[c] * d;
  }
}

void SeqOuterAcc(const Vec& dy, const Vec& x, Mat* dw) {
  for (int r = 0; r < dw->rows; ++r) {
    float d = dy[r];
    if (d == 0) continue;
    float* row = &dw->data[static_cast<size_t>(r) * dw->cols];
    for (int c = 0; c < dw->cols; ++c) row[c] += d * x[c];
  }
}

Vec Column(const Mat& m, int j) {
  Vec v(static_cast<size_t>(m.rows));
  for (int r = 0; r < m.rows; ++r) v[r] = m.at(r, j);
  return v;
}

// The node-by-node loop the batched backward replaces: each node adds its
// own terms and its children's, in column order, so a child's input
// gradient gets its parent's term before its own.
void SeqTreeConvBackward(const std::vector<Param*>& params, const Mat& x,
                         const std::vector<int>& left,
                         const std::vector<int>& right, const Mat& dy,
                         std::vector<Vec>* dx) {
  Param& wp = *params[0];
  Param& wl = *params[1];
  Param& wr = *params[2];
  Param& b = *params[3];
  dx->assign(static_cast<size_t>(x.cols), Vec(static_cast<size_t>(x.rows)));
  for (int i = 0; i < x.cols; ++i) {
    const Vec d = Column(dy, i);
    SeqOuterAcc(d, Column(x, i), &wp.grad);
    SeqMatTVec(wp.value, d, &(*dx)[i]);
    if (left[i] >= 0) {
      SeqOuterAcc(d, Column(x, left[i]), &wl.grad);
      SeqMatTVec(wl.value, d, &(*dx)[left[i]]);
    }
    if (right[i] >= 0) {
      SeqOuterAcc(d, Column(x, right[i]), &wr.grad);
      SeqMatTVec(wr.value, d, &(*dx)[right[i]]);
    }
    for (int r = 0; r < b.grad.rows; ++r) b.grad.at(r, 0) += d[r];
  }
}

TEST(TreeConvTest, BatchedBackwardMatchesSequentialLoopBitwise) {
  // Many trees of mixed shapes, one batch: leaves, left-deep joins, bushy
  // trees with children on both sides, and one tree stored children first,
  // whose nodes get their own term before their parent's.
  Rng rng(11);
  std::vector<int> left, right;
  for (int tree = 0; tree < 12; ++tree) {
    const int base = static_cast<int>(left.size());
    if (tree % 4 == 0) {  // leaf
      left.push_back(-1);
      right.push_back(-1);
    } else if (tree % 4 == 1) {  // (a b) c, preorder: root, ab, a, b, c
      left.insert(left.end(), {base + 1, base + 2, -1, -1, -1});
      right.insert(right.end(), {base + 4, base + 3, -1, -1, -1});
    } else if (tree % 4 == 2) {  // (a b) (c d): root, ab, a, b, cd, c, d
      left.insert(left.end(), {base + 1, base + 2, -1, -1, base + 5, -1, -1});
      right.insert(right.end(), {base + 4, base + 3, -1, -1, base + 6, -1, -1});
    } else {  // (a b) c in postorder: a, b, ab, c, root
      left.insert(left.end(), {-1, -1, base, -1, base + 2});
      right.insert(right.end(), {-1, -1, base + 1, -1, base + 3});
    }
  }
  const int n = static_cast<int>(left.size());
  Rng init(5);
  TreeConvLayer batched(7, 9, &init);
  Rng init_copy(5);
  TreeConvLayer sequential(7, 9, &init_copy);
  Mat x = RandomMat(7, n, &rng);
  // dy as a ReLU'd gradient: every third column all zero, scattered zero
  // entries elsewhere.
  Mat dy = RandomMat(9, n, &rng);
  for (int j = 0; j < n; ++j) {
    for (int r = 0; r < dy.rows; ++r) {
      if (j % 3 == 2 || rng.Uniform(4) == 0) dy.at(r, j) = 0;
    }
  }

  std::vector<Param*> got, want;
  batched.CollectParams(&got);
  sequential.CollectParams(&want);
  // Nonzero starting gradients: the batch adds onto what is there.
  for (size_t i = 0; i < got.size(); ++i) {
    got[i]->grad = RandomMat(got[i]->grad.rows, got[i]->grad.cols, &rng);
    want[i]->grad = got[i]->grad;
  }
  Mat dxt;
  batched.BackwardBatch(Transpose(x), left, right, Transpose(dy), &dxt);
  std::vector<Vec> want_dx;
  SeqTreeConvBackward(want, x, left, right, dy, &want_dx);

  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i]->grad.data, want[i]->grad.data) << "param " << i;
  }
  const Mat dx = Transpose(dxt);
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(Column(dx, j), want_dx[j]) << "column " << j;
  }
}

TEST(LinearTest, BatchedBackwardMatchesSequentialLoopBitwise) {
  Rng rng(13);
  Linear batched(10, 6, &rng);
  Linear sequential = batched;
  Mat x = RandomMat(10, 9, &rng);
  Mat dy = RandomMat(6, 9, &rng);
  for (int r = 0; r < dy.rows; ++r) dy.at(r, 4) = 0;  // a ReLU'd column
  dy.at(2, 1) = 0;
  Mat dxt;
  batched.BackwardBatch(Transpose(x), Transpose(dy), &dxt);
  const Mat dx = Transpose(dxt);
  for (int j = 0; j < x.cols; ++j) {
    const Vec d = Column(dy, j);
    SeqOuterAcc(d, Column(x, j), &sequential.w().grad);
    for (int r = 0; r < dy.rows; ++r) sequential.b().grad.at(r, 0) += d[r];
    Vec want(10, 0.f);
    SeqMatTVec(sequential.w().value, d, &want);
    EXPECT_EQ(Column(dx, j), want) << "column " << j;
  }
  EXPECT_EQ(batched.w().grad.data, sequential.w().grad.data);
  EXPECT_EQ(batched.b().grad.data, sequential.b().grad.data);
}

TEST(PoolTest, MaxPoolAndBackward) {
  // Two items stacked: columns 0-2 and 3-4. Item 1 ties in both rows; the
  // first maximal column takes the gradient.
  Mat nodes(2, 5);
  const float values[2][5] = {{1.f, 0.f, 3.f, 2.f, 2.f},
                              {-5.f, 2.f, 0.f, 0.f, 0.f}};
  for (int d = 0; d < 2; ++d) {
    for (int c = 0; c < 5; ++c) nodes.at(d, c) = values[d][c];
  }
  Mat pooled;
  std::vector<int> argmax;
  DynamicMaxPoolBatch(nodes, {0, 3, 5}, &pooled, &argmax);
  EXPECT_EQ(pooled.at(0, 0), 3.f);
  EXPECT_EQ(pooled.at(1, 0), 2.f);
  EXPECT_EQ(pooled.at(0, 1), 2.f);
  EXPECT_EQ(pooled.at(1, 1), 0.f);
  EXPECT_EQ(argmax, (std::vector<int>{2, 3, 1, 3}));

  Vec per_item;
  DynamicMaxPool({{1.f, -5.f}, {0.f, 2.f}, {3.f, 0.f}}, &per_item);
  EXPECT_EQ(per_item, (Vec{3.f, 2.f}));

  Mat dpooled(2, 2);
  dpooled.at(0, 0) = 1.f;
  dpooled.at(1, 0) = 10.f;
  dpooled.at(0, 1) = 4.f;
  dpooled.at(1, 1) = 7.f;
  Mat dnodes_t(5, 2);
  DynamicMaxPoolBatchBackward(Transpose(dpooled), argmax, &dnodes_t);
  const Mat dnodes = Transpose(dnodes_t);
  EXPECT_EQ(dnodes.at(0, 2), 1.f);
  EXPECT_EQ(dnodes.at(1, 1), 10.f);
  EXPECT_EQ(dnodes.at(0, 3), 4.f);
  EXPECT_EQ(dnodes.at(1, 3), 7.f);
  EXPECT_EQ(dnodes.at(0, 4), 0.f);
  EXPECT_EQ(dnodes.at(0, 0), 0.f);
}

TEST(ReluTest, ForwardBackward) {
  Vec x{-1.f, 0.f, 2.f};
  ReluForward(&x);
  EXPECT_FLOAT_EQ(x[0], 0.f);
  EXPECT_FLOAT_EQ(x[2], 2.f);
  Mat y(1, 3), dy(1, 3);
  y.data = x;
  dy.data = {5.f, 5.f, 5.f};
  ReluMatBackward(y, &dy);
  EXPECT_FLOAT_EQ(dy.data[0], 0.f);  // gradient gated by post-activation
  EXPECT_FLOAT_EQ(dy.data[1], 0.f);
  EXPECT_FLOAT_EQ(dy.data[2], 5.f);
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
