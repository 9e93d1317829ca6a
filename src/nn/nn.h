// A compact neural-network library implementing exactly what Balsa's value
// network needs: fully-connected layers, ReLU, Neo-style tree convolution
// with dynamic (max) pooling, L2 loss, and Adam — with manual backward
// passes verified against finite differences in tests. No external deps.
//
// The kernels under GatherAdd, ColumnAccumulate, the row scorers (which
// both score beam-search frontiers and run training's forward pass), the
// batched backward passes and Adam::Step are compiled twice, for baseline
// x86-64 and with AVX2 (never FMA), and each process runs the variant its
// CPU supports (kernels.h). Every output element sees the same
// sequence of IEEE multiplies, adds and maxima in both, so scores, plans
// and trained weights are bitwise identical on every CPU.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace balsa::nn {

using Vec = std::vector<float>;

/// A dense row-major matrix.
struct Mat {
  int rows = 0, cols = 0;
  std::vector<float> data;

  Mat() = default;
  Mat(int r, int c) : rows(r), cols(c), data(static_cast<size_t>(r) * c, 0.f) {}

  float& at(int r, int c) { return data[static_cast<size_t>(r) * cols + c]; }
  float at(int r, int c) const {
    return data[static_cast<size_t>(r) * cols + c];
  }
  void Zero() { std::fill(data.begin(), data.end(), 0.f); }
};

/// y += W x
void MatVec(const Mat& w, const Vec& x, Vec* y);

/// y += W[:, first : first + k] x over W's transpose `wt` (W's column c is
/// wt's row c, contiguous over W's rows; y has wt.cols entries). Each
/// element adds its terms to itself in ascending column order, as the
/// scalar loop `y[r] += W(r, c) * x[c]` does, but zero inputs are skipped.
/// Started from +0, that is MatVec into a zeroed y, bitwise; continued from
/// such a partial sum, it is MatVec over the longer column range. Layer 1
/// scores a row this way: the query prefix once per query, then each node's
/// mostly one-hot tail from a copy of that term.
void GatherAdd(const Mat& wt, int first, const float* x, int k, float* y);

/// y += W x over W's transpose `wt` for one dense column x (wt.rows
/// entries; y has wt.cols), every element adding its terms to itself in
/// ascending column order with none skipped, as the scalar loop
/// `y[r] += W(r, c) * x[c]` does, without a branch per input. Blocks of
/// outputs stay in registers across the whole column loop. Layer 2 and the
/// head score a row this way, where post-ReLU zeros are too irregular to
/// skip.
void ColumnAccumulate(const Mat& wt, const float* x, float* y);

/// dy *= 1[y > 0] elementwise, where y is the post-ReLU activation.
void ReluMatBackward(const Mat& y, Mat* dy);

/// The transpose of `m`.
Mat Transpose(const Mat& m);

/// A trainable parameter: value + gradient (+ Adam moments).
struct Param {
  Mat value, grad, m, v;

  explicit Param(int rows = 0, int cols = 1)
      : value(rows, cols), grad(rows, cols), m(rows, cols), v(rows, cols) {}

  void XavierInit(Rng* rng, int fan_in, int fan_out);
  void ZeroGrad() { grad.Zero(); }
  size_t NumWeights() const { return value.data.size(); }
};

/// Fully-connected layer y = W x + b.
class Linear {
 public:
  Linear() = default;
  Linear(int in, int out, Rng* rng);

  void Forward(const Vec& x, Vec* y) const;
  /// Backward of Forward over a batch, node-major: row j of `xt` is input
  /// j and row j of `dyt` is dL/dy for it. Visits the rows in order, adding
  /// dy x^T to dW and dy to db, and sets row j of *dxt (when non-null) to
  /// W^T dy, summed over W's rows in ascending order. Zero dy entries are
  /// skipped. Each gradient element thus adds its per-column terms in
  /// column order, as a loop of per-vector updates would.
  void BackwardBatch(const Mat& xt, const Mat& dyt, Mat* dxt);

  void CollectParams(std::vector<Param*>* out) {
    out->push_back(&w_);
    out->push_back(&b_);
  }
  int in_dim() const { return w_.value.cols; }
  int out_dim() const { return w_.value.rows; }
  Param& w() { return w_; }
  Param& b() { return b_; }
  const Param& w() const { return w_; }
  const Param& b() const { return b_; }

 private:
  Param w_, b_;
};

inline void ReluForward(Vec* x) {
  for (float& v : *x) v = v > 0 ? v : 0;
}

/// A binary-tree-structured batch item for tree convolution: node features
/// plus child indices (-1 for none).
struct TreeSample {
  std::vector<Vec> features;  // per node
  std::vector<int> left;      // per node, -1 if leaf
  std::vector<int> right;
};

/// Neo-style tree convolution: out[i] = Wp f[i] + Wl f[left] + Wr f[right] + b,
/// missing children contribute zero.
class TreeConvLayer {
 public:
  TreeConvLayer() = default;
  TreeConvLayer(int in, int out, Rng* rng);

  void Forward(const std::vector<Vec>& in, const std::vector<int>& left,
               const std::vector<int>& right, std::vector<Vec>* out) const;
  /// Backward of Forward over a batch of nodes, node-major as in
  /// Linear::BackwardBatch: row j of `xt` and of `dyt` is node j, and
  /// `left`/`right` index those rows, so trees from many batch items may be
  /// stacked as long as indices are global. Visits the nodes j in order;
  /// each adds the outer products of dy[j] with x[j], x[left[j]] and
  /// x[right[j]] to the Wp, Wl and Wr gradients and dy[j] to b's, and, when
  /// `dxt` is non-null, Wp^T dy[j] to dx[j] and Wl^T dy[j], Wr^T dy[j] to
  /// its children's rows. A node's dx is thus one running sum in the order
  /// its terms arrive: its parent's (an earlier node in preorder), then its
  /// own.
  void BackwardBatch(const Mat& xt, const std::vector<int>& left,
                     const std::vector<int>& right, const Mat& dyt, Mat* dxt);

  void CollectParams(std::vector<Param*>* out) {
    out->push_back(&wp_);
    out->push_back(&wl_);
    out->push_back(&wr_);
    out->push_back(&b_);
  }
  int in_dim() const { return wp_.value.cols; }
  int out_dim() const { return wp_.value.rows; }
  const Mat& wp() const { return wp_.value; }
  const Mat& wl() const { return wl_.value; }
  const Mat& wr() const { return wr_.value; }
  const Mat& b() const { return b_.value; }

 private:
  Param wp_, wl_, wr_, b_;
};

/// Max pooling over nodes.
void DynamicMaxPool(const std::vector<Vec>& nodes, Vec* out);

/// Node-major backward of max pooling over a batch of items whose nodes are
/// stacked: dnodes_t(argmax[d * num_items + i], d) += dpooled_t(i, d), where
/// argmax[d * num_items + i] is the node holding item i's maximum in
/// dimension d.
void DynamicMaxPoolBatchBackward(const Mat& dpooled_t,
                                 const std::vector<int>& argmax,
                                 Mat* dnodes_t);

/// The global L2 norm Adam::Step clips a batch's mean gradients to.
inline constexpr double kAdamGradClip = 5.0;

/// Adam optimizer over a set of parameters: beta1 = 0.9, beta2 = 0.999,
/// eps = 1e-8, gradients clipped to kAdamGradClip.
class Adam {
 public:
  Adam(std::vector<Param*> params, double lr)
      : params_(std::move(params)), lr_(lr) {}

  /// Applies one update from the accumulated gradients (divided by
  /// `batch_size`), then zeroes them.
  void Step(int batch_size);

  int64_t num_steps() const { return t_; }

 private:
  std::vector<Param*> params_;
  double lr_;
  int64_t t_ = 0;
};

/// Where incremental scoring keeps a scored subtree: one row of `stride`
/// floats in a caller-owned flat table, beside the subtree's score:
///   h1 | pooled | left term | right term
///  - h1: the root's post-ReLU first tree-conv layer;
///  - pooled: max of the second layer's output over the subtree;
///  - the terms: what the subtree adds to a parent as its left or right
///    child, Wl·input ++ Wl2·h1 of the two tree-conv layers (Wr, Wr2 on the
///    right), term_dim floats each. ChildTerms fills them; ScoreRoots
///    writes only h1 and pooled.
struct EmbeddingRowLayout {
  int pooled = 0;  // h1 starts the row
  int term[2] = {0, 0};
  int term_dim = 0;
  int stride = 0;
};

/// One subtree root to score. A leaf has no children; a join's children
/// are rows scored earlier, each with its term for its side filled. The
/// pointers are borrowed for the call. Training's forward pass also asks
/// for what its backward reads; beam search leaves those outputs null.
struct RootJob {
  const float* query_term = nullptr;  // QueryTerm of the query
  const float* node = nullptr;  // the root's node features
  const float* left = nullptr;  // the children's rows
  const float* right = nullptr;
  float* row = nullptr;     // the root's row
  double* score = nullptr;  // the network's output; null skips the head
  float* h2 = nullptr;      // the root's own post-ReLU layer 2, if wanted
  float* hidden = nullptr;  // the head's post-ReLU hidden layer, if wanted
};

/// A scored subtree whose child term for `side` (0 = left, 1 = right) is to
/// be filled in its row.
struct TermJob {
  const float* query_term = nullptr;  // QueryTerm of the query
  const float* node = nullptr;  // the node features of its root
  float* row = nullptr;
  int side = 0;
};

/// A tree-convolution value network — two TreeConvLayers over query ++ node
/// inputs, max pooling, and a two-layer head with one output — laid out
/// for scoring one subtree row at a time: a copy of every weight matrix,
/// transposed (weight column c, what input c adds to every output, is one
/// contiguous row), and of every bias. A copy does not follow later writes
/// of the layers' weights; rebuild it after each.
struct RowNet {
  RowNet() = default;
  RowNet(const TreeConvLayer& layer1, const TreeConvLayer& layer2,
         const Linear& hidden, const Linear& out, int query_inputs);

  int query_dim = 0;  // layer 1's inputs: query_dim, then the node's
  Mat tc1[3], tc2[3];  // Wp, Wl, Wr of each tree-conv layer, transposed
  Mat fc1, fc2;        // transposed
  Mat tc1_b, tc2_b, fc1_b, fc2_b;
  EmbeddingRowLayout layout;
};

/// Layer 1's products of a query's part of the input columns,
/// Wp[:, :qd] q | Wl[:, :qd] q | Wr[:, :qd] q, each summed from +0 by
/// GatherAdd: 3 * tc1 outputs floats. A search, or a training item,
/// computes it once; ScoreRoots and ChildTerms continue every node's inputs
/// from it.
void QueryTerm(const RowNet& net, const float* query, float* term);

/// Scores each job in its own row, from start to finish in contiguous
/// memory, writing h1, pooled and the network's output:
///  - h1 = relu(query term + GatherAdd(node) + left term + right term + b);
///  - layer 2 from +0 by ColumnAccumulate, then the children's terms and b,
///    then ReLU: the root's own h2, stored to job.h2 when that is set;
///  - pooled = max(root h2, children's pooled), branch-free;
///  - the head, its hidden layer (stored to job.hidden when that is set)
///    folded into the output's sum in blocks; skipped when job.score is
///    null.
/// Every element sees the adds and multiplies of the per-item forward pass
/// (TreeConvLayer::Forward, Linear::Forward) in the same order, bar
/// GatherAdd's skipped zero products, which change no sum, and pools the
/// values DynamicMaxPool does (post-ReLU, so their max is the same in any
/// order). A score is thus bitwise the dense forward pass's and
/// independent of the other jobs. Reads the children only.
void ScoreRoots(const RowNet& net, const RootJob* jobs, size_t n);

/// Fills each job's term for its side: layer 1's Wl (or Wr) product
/// continued from the query term over the node's features, then layer 2's
/// from +0 over the row's h1 by ColumnAccumulate — bitwise the MatVec that
/// TreeConvLayer::Forward adds for the node as that child.
void ChildTerms(const RowNet& net, const TermJob* jobs, size_t n);

/// Binary serialization of a parameter list (for checkpoints). A load is
/// all-or-nothing: a file whose count, shapes or length do not match
/// `params` exactly (no trailing bytes) changes no parameter.
Status SaveParams(const std::vector<Param*>& params, const std::string& path);
Status LoadParams(const std::vector<Param*>& params, const std::string& path);

/// Copies values (not moments) from one param set to another of equal
/// shape. On a mismatch, no parameter is changed.
Status CopyParams(const std::vector<Param*>& from,
                  const std::vector<Param*>& to);

}  // namespace balsa::nn
