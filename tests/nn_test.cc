#include "src/nn/nn.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "src/nn/kernels.h"

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
// against MatVec into a zeroed y over the same columns. memcmp, since
// EXPECT_EQ would equate -0 with +0.
TEST(GatherAddTest, MatchesMatVecFromZeroBitwise) {
  Rng rng(17);
  const int qd = 21, nd = 27;
  const float tail[] = {0.f, 1.f, -0.f, 0.5f};
  for (int rows : {1, 7, 32, 37}) {
    for (int trial = 0; trial < 20; ++trial) {
      Mat w = RandomMat(rows, qd + nd, &rng);
      Vec x(static_cast<size_t>(qd + nd));
      for (int c = 0; c < qd; ++c) {
        x[c] =
            rng.Uniform(3) == 0 ? 0.f : static_cast<float>(rng.UniformDouble());
      }
      for (int c = qd; c < qd + nd; ++c) x[c] = tail[rng.Uniform(4)];
      Mat wq(rows, qd);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < qd; ++c) wq.at(r, c) = w.at(r, c);
      }
      Vec want_query(static_cast<size_t>(rows), 0.f), want = want_query;
      MatVec(wq, Vec(x.begin(), x.begin() + qd), &want_query);
      MatVec(w, x, &want);

      const Mat wt = Transpose(w);
      const size_t bytes = sizeof(float) * static_cast<size_t>(rows);
      Vec got(static_cast<size_t>(rows), 0.f);
      GatherAdd(wt, 0, x.data(), qd, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want_query.data(), bytes), 0)
          << rows << " rows, trial " << trial;
      GatherAdd(wt, qd, x.data() + qd, nd, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
          << rows << " rows, trial " << trial;
    }
  }
}

// A sum that cancels to zero is +0, so the -0 products GatherAdd skips
// (0.25 * -0 and -0.25 * 0) leave it +0, as adding them does in MatVec.
TEST(GatherAddTest, SkippedZerosKeepACancelledSumPositive) {
  Mat w(1, 4);
  w.data = {0.5f, -0.5f, 0.25f, -0.25f};
  const Vec x = {1.f, 1.f, -0.f, 0.f};
  Vec want(1, 0.f);
  MatVec(w, x, &want);
  Vec got(1, 0.f);
  GatherAdd(Transpose(w), 0, x.data(), 4, got.data());
  EXPECT_FALSE(std::signbit(want[0]));
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float)), 0);
}

// ColumnAccumulate over every block size (32, 16, 8 and single outputs)
// against a scalar loop adding each term to y in ascending order, from a
// zeroed y and from a partial sum, with post-ReLU zeros among the inputs.
TEST(ColumnAccumulateTest, MatchesScalarLoopBitwise) {
  Rng rng(19);
  for (int rows : {1, 7, 8, 16, 31, 32, 57, 64, 70}) {
    for (int k : {1, 5, 16, 33}) {
      for (bool from_zero : {true, false}) {
        const Mat w = RandomMat(rows, k, &rng);
        Vec x = RandomMat(k, 1, &rng).data;
        for (float& v : x) v = v > 0 ? v : 0;
        Vec want(static_cast<size_t>(rows), 0.f);
        if (!from_zero) want = RandomMat(rows, 1, &rng).data;
        Vec got = want;
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < k; ++c) want[r] += w.at(r, c) * x[c];
        }
        ColumnAccumulate(Transpose(w), x.data(), got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              sizeof(float) * static_cast<size_t>(rows)),
                  0)
            << rows << " rows, " << k << " columns"
            << (from_zero ? "" : ", from a partial sum");
      }
    }
  }
}

double SumSquares(const Vec& y) {
  double l = 0;
  for (float v : y) l += static_cast<double>(v) * v;
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

Vec RowOf(const Mat& m, int j) {
  const float* row = &m.data[static_cast<size_t>(j) * m.cols];
  return Vec(row, row + m.cols);
}

TEST(LinearTest, GradCheck) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Mat xt = RandomMat(3, 4, &rng);  // three inputs, one per row

  auto loss = [&] {
    double l = 0;
    Vec y;
    for (int j = 0; j < xt.rows; ++j) {
      layer.Forward(RowOf(xt, j), &y);
      l += SumSquares(y);
    }
    return l;
  };

  Mat dyt(3, 3);
  for (int j = 0; j < xt.rows; ++j) {
    Vec y;
    layer.Forward(RowOf(xt, j), &y);
    for (int r = 0; r < 3; ++r) dyt.at(j, r) = 2 * y[r];
  }
  Mat dxt;
  layer.w().ZeroGrad();
  layer.b().ZeroGrad();
  layer.BackwardBatch(xt, dyt, &dxt);
  ASSERT_EQ(dxt.rows, 3);
  ASSERT_EQ(dxt.cols, 4);

  ExpectGradsMatch(&layer.w().value.data, layer.w().grad.data, loss, "w");
  ExpectGradsMatch(&layer.b().value.data, layer.b().grad.data, loss, "b");
  ExpectGradsMatch(&xt.data, dxt.data, loss, "x");
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

TEST(TreeConvTest, GradCheck) {
  Rng rng(3);
  TreeConvLayer layer(3, 2, &rng);
  // Two trees stacked as one batch, each in preorder: (a b) (c d), whose
  // root has join children on both sides, and a leaf.
  struct {
    std::vector<int> left{1, 2, -1, -1, 5, -1, -1, -1};
    std::vector<int> right{4, 3, -1, -1, 6, -1, -1, -1};
  } t;
  Mat xt = RandomMat(8, 3, &rng);  // one node per row
  auto forward = [&] {
    std::vector<Vec> in, out;
    for (int j = 0; j < xt.rows; ++j) in.push_back(RowOf(xt, j));
    layer.Forward(in, t.left, t.right, &out);
    return out;
  };
  auto loss = [&] {
    double l = 0;
    for (const Vec& y : forward()) l += SumSquares(y);
    return l;
  };

  std::vector<Param*> params;
  layer.CollectParams(&params);
  for (Param* p : params) p->ZeroGrad();

  const std::vector<Vec> out = forward();
  Mat doutt(8, 2);
  for (int j = 0; j < 8; ++j) {
    for (int r = 0; r < 2; ++r) doutt.at(j, r) = 2 * out[j][r];
  }
  Mat dxt;
  layer.BackwardBatch(xt, t.left, t.right, doutt, &dxt);

  const char* names[] = {"wp", "wl", "wr", "b"};
  for (size_t i = 0; i < params.size(); ++i) {
    ExpectGradsMatch(&params[i]->value.data, params[i]->grad.data, loss,
                     names[i]);
  }
  // A child's input gradient has its parent's term and its own.
  ExpectGradsMatch(&xt.data, dxt.data, loss, "x");
}

// The row kernels against the per-item forward pass (Forward, ReLU,
// DynamicMaxPool, the head) over a three-node join, bit for bit: every
// row output (h1, pooled), the root's own h2 and head hidden layer, the
// score, and each child's terms against the MatVec products Forward adds
// for it. A job without a score leaves the head alone.
TEST(RowKernelTest, ReproduceForwardBitwise) {
  Rng rng(4);
  const int qd = 3, nd = 4;
  TreeConvLayer tc1(qd + nd, 9, &rng), tc2(9, 5, &rng);
  Linear fc1(5, 6, &rng), fc2(6, 1, &rng);
  std::vector<Param*> params;
  tc1.CollectParams(&params);
  tc2.CollectParams(&params);
  fc1.CollectParams(&params);
  fc2.CollectParams(&params);
  for (Param* p : params) {
    for (float& v : p->value.data) v += 0.1f;  // nonzero biases
  }
  const RowNet net(tc1, tc2, fc1, fc2, qd);
  const Vec query = {0.5f, 0.f, -0.25f};
  const TreeSample t = ThreeNodeTree(nd);

  // The per-item reference.
  std::vector<Vec> in, h1, h2;
  for (const Vec& f : t.features) {
    in.push_back(query);
    in.back().insert(in.back().end(), f.begin(), f.end());
  }
  tc1.Forward(in, t.left, t.right, &h1);
  for (Vec& v : h1) ReluForward(&v);
  tc2.Forward(h1, t.left, t.right, &h2);
  for (Vec& v : h2) ReluForward(&v);
  Vec pooled, m1, out;
  DynamicMaxPool(h2, &pooled);
  fc1.Forward(pooled, &m1);
  ReluForward(&m1);
  fc2.Forward(m1, &out);

  // Leaves, their terms, then the root over them.
  const EmbeddingRowLayout& layout = net.layout;
  Vec term(static_cast<size_t>(3 * 9));
  QueryTerm(net, query.data(), term.data());
  std::vector<Vec> rows(3, Vec(static_cast<size_t>(layout.stride)));
  std::vector<Vec> own(3, Vec(5, -1.f));
  Vec hidden(6, -1.f), leaf_hidden(6, -1.f);
  double score = -1;
  for (int node : {2, 1}) {
    RootJob job{term.data(), t.features[node].data(), nullptr, nullptr,
                rows[node].data(), nullptr, own[node].data(),
                leaf_hidden.data()};
    ScoreRoots(net, &job, 1);
    const int side = node == 1 ? 0 : 1;
    TermJob term_job{term.data(), t.features[node].data(), rows[node].data(),
                     side};
    ChildTerms(net, &term_job, 1);
    Vec want(9, 0.f), want2(5, 0.f);
    MatVec(side == 0 ? tc1.wl() : tc1.wr(), in[node], &want);
    MatVec(side == 0 ? tc2.wl() : tc2.wr(), h1[node], &want2);
    want.insert(want.end(), want2.begin(), want2.end());
    const float* got = rows[node].data() + layout.term[side];
    EXPECT_EQ(Vec(got, got + layout.term_dim), want) << "side " << side;
  }
  EXPECT_EQ(leaf_hidden, Vec(6, -1.f)) << "a scoreless job ran the head";
  RootJob job{term.data(), t.features[0].data(), rows[1].data(),
              rows[2].data(), rows[0].data(), &score, own[0].data(),
              hidden.data()};
  ScoreRoots(net, &job, 1);

  for (int node = 0; node < 3; ++node) {
    EXPECT_EQ(Vec(rows[node].begin(), rows[node].begin() + 9), h1[node])
        << "h1 of node " << node;
    EXPECT_EQ(own[node], h2[node]) << "h2 of node " << node;
  }
  const float* got_pooled = rows[0].data() + layout.pooled;
  EXPECT_EQ(Vec(got_pooled, got_pooled + 5), pooled);
  EXPECT_EQ(hidden, m1);
  EXPECT_EQ(score, static_cast<double>(out[0]));
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
  Vec per_item;
  DynamicMaxPool({{1.f, -5.f}, {0.f, 2.f}, {3.f, 0.f}}, &per_item);
  EXPECT_EQ(per_item, (Vec{3.f, 2.f}));

  // Two items stacked: nodes 0-2 and 3-4. Each item's gradient in each
  // dimension goes to the node its argmax names.
  const std::vector<int> argmax = {2, 3, 1, 3};  // per (dim, item)
  Mat dpooled_t(2, 2);  // per (item, dim)
  dpooled_t.at(0, 0) = 1.f;
  dpooled_t.at(0, 1) = 10.f;
  dpooled_t.at(1, 0) = 4.f;
  dpooled_t.at(1, 1) = 7.f;
  Mat dnodes_t(5, 2);
  DynamicMaxPoolBatchBackward(dpooled_t, argmax, &dnodes_t);
  EXPECT_EQ(dnodes_t.at(2, 0), 1.f);
  EXPECT_EQ(dnodes_t.at(1, 1), 10.f);
  EXPECT_EQ(dnodes_t.at(3, 0), 4.f);
  EXPECT_EQ(dnodes_t.at(3, 1), 7.f);
  EXPECT_EQ(dnodes_t.at(4, 0), 0.f);
  EXPECT_EQ(dnodes_t.at(0, 0), 0.f);
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
  Adam adam({&w}, /*lr=*/0.1);
  for (int step = 0; step < 300; ++step) {
    w.grad.data[0] = 2 * (w.value.data[0] - 3.f);
    adam.Step(1);
  }
  EXPECT_NEAR(w.value.data[0], 3.f, 0.05);
  EXPECT_EQ(adam.num_steps(), 300);
}

TEST(AdamTest, ClipsTheGlobalGradientNormToFive) {
  // A gradient of global norm 5e6 is scaled to norm kAdamGradClip = 5, so
  // `clipped` follows `reference`, whose first gradient (3, 4) has norm 5
  // exactly and is not scaled. Adam's first step is scale-invariant; the
  // moments the first gradient leaves tell the two apart on the second.
  Param clipped(1, 2), reference(1, 2);
  Adam adam_clipped({&clipped}, /*lr=*/0.1);
  Adam adam_reference({&reference}, /*lr=*/0.1);
  clipped.grad.data = {3e6f, 4e6f};
  reference.grad.data = {3.f, 4.f};
  adam_clipped.Step(1);
  adam_reference.Step(1);
  for (Param* p : {&clipped, &reference}) p->grad.data = {1.f, 1.f};
  adam_clipped.Step(1);
  adam_reference.Step(1);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(clipped.m.data[i], reference.m.data[i], 1e-5) << i;
    EXPECT_NEAR(clipped.value.data[i], reference.value.data[i], 1e-5) << i;
  }
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

// ---------------------------------------------------------------------------
// Cross-ISA differential tests: each kernel's AVX2 variant against its
// baseline variant on the same inputs, bit for bit. The inputs carry what
// vector code could treat differently: +-0, subnormals, one-hot rows and
// post-ReLU zeros.

TEST(KernelDispatchTest, RunsAvx2WhenTheCpuHasIt) {
  const Kernels* avx2 = Avx2Kernels();
  EXPECT_EQ(&ActiveKernels(), avx2 != nullptr ? avx2 : &BaselineKernels());
  std::printf("active kernels: %s\n", ActiveKernels().isa);
}

class CrossIsaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = Avx2Kernels();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "this CPU has no AVX2 (or the build is not x86-64): "
                      "only the baseline kernels can run, so there is no "
                      "second variant to compare";
    }
  }

  // +-0, subnormals, exact ones (one-hot entries) and ordinary values.
  static float EdgeValue(Rng* rng) {
    switch (rng->Uniform(8)) {
      case 0:
        return 0.f;
      case 1:
        return -0.f;
      case 2:
        return std::numeric_limits<float>::denorm_min() *
               static_cast<float>(1 + rng->Uniform(1000));
      case 3:
        return -std::numeric_limits<float>::min() / 8;
      case 4:
        return 1.f;
      default:
        return static_cast<float>(rng->UniformDouble() * 2 - 1);
    }
  }

  static Mat EdgeMat(int rows, int cols, Rng* rng) {
    Mat m(rows, cols);
    for (float& v : m.data) v = EdgeValue(rng);
    return m;
  }

  // A one-hot input row: zeros, one of them 1.
  static void OneHot(float* x, int n, Rng* rng) {
    std::fill(x, x + n, 0.f);
    x[rng->Uniform(static_cast<uint64_t>(n))] = 1.f;
  }

  static void ReluZeros(Mat* m, Rng* rng) {
    for (float& v : m->data) {
      if (rng->Uniform(2) == 0) v = 0.f;
    }
  }

  static bool SameBits(const std::vector<float>& a,
                       const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
  }

  const Kernels& base_ = BaselineKernels();
  const Kernels* avx2_ = nullptr;
};

TEST_F(CrossIsaTest, GatherAddAndColumnAccumulate) {
  Rng rng(37);
  for (int rows : {1, 7, 8, 16, 24, 32, 48, 64, 70}) {
    for (int trial = 0; trial < 8; ++trial) {
      const int qd = 5, nd = 9;
      const Mat wt = EdgeMat(qd + nd, rows, &rng);
      Vec x(static_cast<size_t>(qd + nd));
      for (float& v : x) v = EdgeValue(&rng);
      if (trial % 2 == 0) OneHot(x.data() + qd, nd, &rng);
      Vec start(static_cast<size_t>(rows), 0.f);
      if (trial % 4 == 3) {
        for (float& v : start) v = EdgeValue(&rng);
      }
      Vec base = start, avx2 = start;
      base_.gather_add(wt, 0, x.data(), qd, base.data());
      avx2_->gather_add(wt, 0, x.data(), qd, avx2.data());
      base_.gather_add(wt, qd, x.data() + qd, nd, base.data());
      avx2_->gather_add(wt, qd, x.data() + qd, nd, avx2.data());
      EXPECT_TRUE(SameBits(base, avx2)) << "gather, " << rows << " rows";

      for (float& v : x) v = v > 0 ? v : 0;  // post-ReLU
      base = start;
      avx2 = start;
      base_.column_accumulate(wt, x.data(), base.data());
      avx2_->column_accumulate(wt, x.data(), avx2.data());
      EXPECT_TRUE(SameBits(base, avx2)) << "dense, " << rows << " rows";
    }
  }
}

TEST_F(CrossIsaTest, Backward) {
  Rng rng(41);
  // Three trees in preorder: a leaf, (a b) c and (a b) (c d).
  const std::vector<int> left = {-1, 2, 3, -1, -1, -1, 7, 8, -1, -1, 11, -1,
                                 -1};
  const std::vector<int> right = {-1, 5, 4, -1, -1, -1, 10, 9, -1, -1, 12,
                                  -1, -1};
  const int n = static_cast<int>(left.size()), in = 19, out = 37;
  for (bool tree : {false, true}) {
    Mat w[3], dw_base[3], dw_avx2[3];
    for (int k = 0; k < 3; ++k) {
      w[k] = EdgeMat(out, in, &rng);
      dw_base[k] = dw_avx2[k] = EdgeMat(out, in, &rng);
    }
    Mat db_base = EdgeMat(out, 1, &rng), db_avx2 = db_base;
    const Mat xt = EdgeMat(n, in, &rng);
    Mat dyt = EdgeMat(n, out, &rng);
    ReluZeros(&dyt, &rng);
    Mat dxt_base(n, in), dxt_avx2(n, in);
    std::vector<int> rows(static_cast<size_t>(out));
    LayerGrads base, avx2;
    for (int k = 0; k < (tree ? 3 : 1); ++k) {
      base.w[k] = avx2.w[k] = &w[k];
      base.dw[k] = &dw_base[k];
      avx2.dw[k] = &dw_avx2[k];
    }
    base.db = &db_base;
    avx2.db = &db_avx2;
    if (tree) {
      base.child[0] = avx2.child[0] = left.data();
      base.child[1] = avx2.child[1] = right.data();
    }
    base_.backward(base, xt, dyt, &dxt_base, rows.data());
    avx2_->backward(avx2, xt, dyt, &dxt_avx2, rows.data());
    for (int k = 0; k < 3; ++k) {
      EXPECT_TRUE(SameBits(dw_base[k].data, dw_avx2[k].data))
          << "weight " << k << (tree ? ", tree conv" : ", linear");
    }
    EXPECT_TRUE(SameBits(db_base.data, db_avx2.data));
    EXPECT_TRUE(SameBits(dxt_base.data, dxt_avx2.data));
  }
}

TEST_F(CrossIsaTest, AdamUpdate) {
  Rng rng(43);
  Param base(37, 29);
  base.value = EdgeMat(37, 29, &rng);
  base.grad = EdgeMat(37, 29, &rng);
  base.m = EdgeMat(37, 29, &rng);
  base.v = EdgeMat(37, 29, &rng);
  for (float& v : base.v.data) v = std::abs(v);
  Param avx2 = base;
  AdamStep step;
  step.scale = 1.0 / 64;
  step.clip_scale = 0.75;
  step.lr = 1e-3;
  step.beta1 = 0.9;
  step.beta2 = 0.999;
  step.eps = 1e-8;
  step.bc1 = 1 - std::pow(0.9, 7);
  step.bc2 = 1 - std::pow(0.999, 7);
  base_.adam_update(step, &base);
  avx2_->adam_update(step, &avx2);
  EXPECT_TRUE(SameBits(base.value.data, avx2.value.data));
  EXPECT_TRUE(SameBits(base.m.data, avx2.m.data));
  EXPECT_TRUE(SameBits(base.v.data, avx2.v.data));
}

// Leaves, their child terms, then joins over them, each variant in its own
// rows; then joins over children rows of edge values shared by both. Sizes
// cover each block width and a head wider than one block. Every job also
// writes its own h2 and head hidden layer, as training's forward pass asks,
// except every third, which has no score: it skips the head, leaving its
// hidden layer as it was.
TEST_F(CrossIsaTest, ScoreRootsAndChildTerms) {
  Rng rng(47);
  const int dims[][3] = {{16, 8, 8}, {37, 13, 40}, {64, 32, 32}};
  for (const auto& dim : dims) {
    const int qd = 6, nd = 11;
    TreeConvLayer tc1(qd + nd, dim[0], &rng), tc2(dim[0], dim[1], &rng);
    Linear fc1(dim[1], dim[2], &rng), fc2(dim[2], 1, &rng);
    std::vector<Param*> params;
    tc1.CollectParams(&params);
    tc2.CollectParams(&params);
    fc1.CollectParams(&params);
    fc2.CollectParams(&params);
    for (Param* p : params) {
      for (float& v : p->value.data) {
        if (rng.Uniform(4) == 0) v = EdgeValue(&rng);
      }
    }
    const RowNet net(tc1, tc2, fc1, fc2, qd);
    const size_t stride = static_cast<size_t>(net.layout.stride);

    Vec query(static_cast<size_t>(qd));
    for (float& v : query) v = EdgeValue(&rng);
    Vec term(static_cast<size_t>(3 * dim[0]));
    QueryTerm(net, query.data(), term.data());
    const int leaves = 6;
    const int jobs_total = 2 * leaves + 2;
    std::vector<Vec> nodes(2 * leaves, Vec(static_cast<size_t>(nd)));
    for (Vec& node : nodes) {
      OneHot(node.data(), nd, &rng);
      node[rng.Uniform(static_cast<uint64_t>(nd))] = EdgeValue(&rng);
    }
    // Children of edge values (pooled and terms), read-only to both.
    std::vector<Vec> edge_rows(2, Vec(stride));
    for (Vec& row : edge_rows) {
      for (float& v : row) v = EdgeValue(&rng);
    }

    const size_t h2_dim = static_cast<size_t>(dim[1]);
    const size_t hidden_dim = static_cast<size_t>(dim[2]);
    const float unset = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> rows[2], h2[2], hidden[2];
    std::vector<double> scores[2];
    const Kernels* variants[2] = {&base_, avx2_};
    for (int v = 0; v < 2; ++v) {
      rows[v].assign(stride * jobs_total, 0.f);
      h2[v].assign(h2_dim * jobs_total, unset);
      hidden[v].assign(hidden_dim * jobs_total, unset);
      scores[v].assign(jobs_total, -1);
      float* row = rows[v].data();
      // Job i's outputs; every third job has no score.
      auto job = [&](int i, const float* node, const float* l,
                     const float* r) {
        return RootJob{term.data(),
                       node,
                       l,
                       r,
                       row + i * stride,
                       i % 3 == 2 ? nullptr : &scores[v][i],
                       h2[v].data() + i * h2_dim,
                       hidden[v].data() + i * hidden_dim};
      };
      std::vector<RootJob> jobs;
      std::vector<TermJob> terms;
      for (int i = 0; i < leaves; ++i) {
        jobs.push_back(job(i, nodes[i].data(), nullptr, nullptr));
        for (int side : {0, 1}) {
          terms.push_back({term.data(), nodes[i].data(), row + i * stride,
                           side});
        }
      }
      variants[v]->score_roots(net, jobs.data(), jobs.size());
      variants[v]->child_terms(net, terms.data(), terms.size());
      jobs.clear();
      for (int i = leaves; i < 2 * leaves; ++i) {
        const float* l = row + (i - leaves) * stride;
        const float* r = row + ((i - leaves + 1) % leaves) * stride;
        jobs.push_back(job(i, nodes[i].data(), l, r));
      }
      for (int i = 0; i < 2; ++i) {
        jobs.push_back(job(2 * leaves + i, nodes[i].data(),
                           edge_rows[i].data(), edge_rows[1 - i].data()));
      }
      variants[v]->score_roots(net, jobs.data(), jobs.size());
    }
    const std::string what =
        std::to_string(dim[0]) + "/" + std::to_string(dim[1]);
    EXPECT_TRUE(SameBits(rows[0], rows[1])) << what;
    EXPECT_TRUE(SameBits(h2[0], h2[1])) << what;
    EXPECT_TRUE(SameBits(hidden[0], hidden[1])) << what;
    EXPECT_EQ(std::memcmp(scores[0].data(), scores[1].data(),
                          sizeof(double) * scores[0].size()),
              0)
        << what;
    for (int i = 0; i < jobs_total; ++i) {
      const float* h = hidden[0].data() + i * hidden_dim;
      EXPECT_EQ(std::isnan(h[0]), i % 3 == 2) << what << " job " << i;
      EXPECT_EQ(scores[0][i] == -1, i % 3 == 2) << what << " job " << i;
      EXPECT_FALSE(std::isnan(h2[0][i * h2_dim])) << what << " job " << i;
    }
  }
}

}  // namespace
}  // namespace balsa::nn
