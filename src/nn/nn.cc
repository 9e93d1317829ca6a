#include "src/nn/nn.h"

#include <cmath>
#include <cstdio>

namespace balsa::nn {

void MatVec(const Mat& w, const Vec& x, Vec* y) {
  for (int r = 0; r < w.rows; ++r) {
    const float* row = &w.data[static_cast<size_t>(r) * w.cols];
    float acc = 0;
    for (int c = 0; c < w.cols; ++c) acc += row[c] * x[c];
    (*y)[r] += acc;
  }
}

namespace {

// The per-column kernels of the batched backward, on one column's
// contiguous (node-major) row. They skip zero dy entries, visiting only
// the rows that NonZeroRows lists: ReLU makes about half of a gradient
// zero, too irregularly for a branch per entry to predict.

// Lists the r with dy[r] != 0 in ascending order; returns how many.
int NonZeroRows(const float* dy, int n, int* rows) {
  int count = 0;
  for (int r = 0; r < n; ++r) {
    rows[count] = r;
    count += dy[r] != 0;
  }
  return count;
}

// dw += dy x^T.
void OuterAcc(const float* dy, const int* rows, int count,
              const float* __restrict__ x, Mat* dw) {
  for (int k = 0; k < count; ++k) {
    const float d = dy[rows[k]];
    float* __restrict__ row =
        &dw->data[static_cast<size_t>(rows[k]) * dw->cols];
    for (int c = 0; c < dw->cols; ++c) row[c] += d * x[c];
  }
}

// dx += w^T dy, summing over w's rows in ascending order.
void MatTVec(const Mat& w, const float* dy, const int* rows, int count,
             float* __restrict__ dx) {
  for (int k = 0; k < count; ++k) {
    const float d = dy[rows[k]];
    const float* __restrict__ row =
        &w.data[static_cast<size_t>(rows[k]) * w.cols];
    for (int c = 0; c < w.cols; ++c) dx[c] += row[c] * d;
  }
}

// bias += dy.
void BiasAcc(const float* __restrict__ dy, Mat* bias) {
  float* __restrict__ b = bias->data.data();
  for (int r = 0; r < bias->rows; ++r) b[r] += dy[r];
}

const float* Row(const Mat& m, int j) {
  return &m.data[static_cast<size_t>(j) * m.cols];
}
float* Row(Mat* m, int j) {
  return &m->data[static_cast<size_t>(j) * m->cols];
}

}  // namespace

Mat Transpose(const Mat& m) {
  Mat t(m.cols, m.rows);
  for (int r = 0; r < m.rows; ++r) {
    for (int c = 0; c < m.cols; ++c) t.at(c, r) = m.at(r, c);
  }
  return t;
}

void AddMatMul(const Mat& w, const Mat& x, Mat* y) {
  const int n = x.cols;
  const int cols = w.cols;
  // Four weight columns per pass, explicitly left-associated so every
  // output element still accumulates its terms in ascending-c order —
  // bitwise identical to MatVec — while y is loaded/stored once per pass.
  // The j loops are independent elementwise updates over __restrict__
  // arrays: they vectorize, which MatVec's serial reduction cannot.
  for (int r = 0; r < w.rows; ++r) {
    const float* wrow = &w.data[static_cast<size_t>(r) * cols];
    float* __restrict__ yrow = &y->data[static_cast<size_t>(r) * n];
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      const float w0 = wrow[c], w1 = wrow[c + 1];
      const float w2 = wrow[c + 2], w3 = wrow[c + 3];
      const float* __restrict__ x0 = &x.data[static_cast<size_t>(c) * n];
      const float* __restrict__ x1 = x0 + n;
      const float* __restrict__ x2 = x1 + n;
      const float* __restrict__ x3 = x2 + n;
      for (int j = 0; j < n; ++j) {
        yrow[j] = (((yrow[j] + w0 * x0[j]) + w1 * x1[j]) + w2 * x2[j]) +
                  w3 * x3[j];
      }
    }
    for (; c < cols; ++c) {
      const float wv = wrow[c];
      const float* __restrict__ xrow = &x.data[static_cast<size_t>(c) * n];
      for (int j = 0; j < n; ++j) yrow[j] += wv * xrow[j];
    }
  }
}

void GatherAdd(const Mat& wt, int first, const float* x, int k,
               float* __restrict__ y) {
  // A nonzero input adds w * x, AddMatMul's exact term (a one-hot 1 adds w
  // itself). A zero input's product is +-0 when w is finite, and adding
  // +-0 to a sum never changes it: the sum is nonzero, or it is +0, since
  // a sum started at +0 can reach zero again only as +0 in
  // round-to-nearest. So skipping zeros relies on finite weights.
  const int rows = wt.cols;
  for (int c = 0; c < k; ++c) {
    const float v = x[c];
    if (v == 0) continue;
    const float* __restrict__ w = Row(wt, first + c);
    for (int r = 0; r < rows; ++r) y[r] += w[r] * v;
  }
}

void ReluMatForward(Mat* x) {
  for (float& v : x->data) v = v > 0 ? v : 0;
}

void ReluMatBackward(const Mat& y, Mat* dy) {
  const float* __restrict__ in = y.data.data();
  float* __restrict__ g = dy->data.data();
  // A select rather than a branch: ReLU zeros are too common to predict.
  for (size_t i = 0; i < y.data.size(); ++i) g[i] = in[i] <= 0 ? 0.f : g[i];
}

void Param::XavierInit(Rng* rng, int fan_in, int fan_out) {
  double bound = std::sqrt(6.0 / (fan_in + fan_out));
  for (float& w : value.data) {
    w = static_cast<float>((rng->UniformDouble() * 2 - 1) * bound);
  }
}

Linear::Linear(int in, int out, Rng* rng) : w_(out, in), b_(out, 1) {
  w_.XavierInit(rng, in, out);
}

void Linear::Forward(const Vec& x, Vec* y) const {
  y->assign(w_.value.rows, 0.f);
  MatVec(w_.value, x, y);
  for (int r = 0; r < b_.value.rows; ++r) (*y)[r] += b_.value.at(r, 0);
}

void Linear::ForwardBatch(const Mat& x, Mat* y) const {
  y->rows = w_.value.rows;
  y->cols = x.cols;
  y->data.assign(static_cast<size_t>(y->rows) * y->cols, 0.f);
  AddMatMul(w_.value, x, y);
  for (int r = 0; r < y->rows; ++r) {
    const float b = b_.value.at(r, 0);
    for (int j = 0; j < y->cols; ++j) y->at(r, j) += b;
  }
}

void Linear::BackwardBatch(const Mat& xt, const Mat& dyt, Mat* dxt) {
  if (dxt) *dxt = Mat(dyt.rows, in_dim());
  std::vector<int> rows(static_cast<size_t>(dyt.cols));
  for (int j = 0; j < dyt.rows; ++j) {
    const float* dy = Row(dyt, j);
    const int nz = NonZeroRows(dy, dyt.cols, rows.data());
    OuterAcc(dy, rows.data(), nz, Row(xt, j), &w_.grad);
    BiasAcc(dy, &b_.grad);
    if (dxt) MatTVec(w_.value, dy, rows.data(), nz, Row(dxt, j));
  }
}

TreeConvLayer::TreeConvLayer(int in, int out, Rng* rng)
    : wp_(out, in), wl_(out, in), wr_(out, in), b_(out, 1) {
  wp_.XavierInit(rng, in * 3, out);
  wl_.XavierInit(rng, in * 3, out);
  wr_.XavierInit(rng, in * 3, out);
}

void TreeConvLayer::Forward(const std::vector<Vec>& in,
                            const std::vector<int>& left,
                            const std::vector<int>& right,
                            std::vector<Vec>* out) const {
  const int n = static_cast<int>(in.size());
  out->assign(n, Vec());
  for (int i = 0; i < n; ++i) {
    Vec& y = (*out)[i];
    y.assign(wp_.value.rows, 0.f);
    MatVec(wp_.value, in[i], &y);
    if (left[i] >= 0) MatVec(wl_.value, in[left[i]], &y);
    if (right[i] >= 0) MatVec(wr_.value, in[right[i]], &y);
    for (int r = 0; r < b_.value.rows; ++r) y[r] += b_.value.at(r, 0);
  }
}

void TreeConvLayer::ForwardBatch(const Mat& x, const std::vector<int>& left,
                                 const std::vector<int>& right,
                                 Mat* out) const {
  // One side's terms: multiply the gathered children compactly; column k
  // of `*terms` belongs to the k-th output column with a child.
  auto side_terms = [&](int side, const std::vector<int>& child,
                        Mat* terms) {
    std::vector<int> cols;
    for (int i = 0; i < x.cols; ++i) {
      if (child[i] >= 0) cols.push_back(i);
    }
    const int m = static_cast<int>(cols.size());
    TermColumns t;
    t.cols.assign(static_cast<size_t>(x.cols), nullptr);
    if (m == 0) return t;
    Mat gathered(x.rows, m);
    for (int r = 0; r < x.rows; ++r) {
      for (int k = 0; k < m; ++k) gathered.at(r, k) = x.at(r, child[cols[k]]);
    }
    ChildTerm(side, gathered, terms);
    t.stride = m;
    for (int k = 0; k < m; ++k) t.cols[cols[k]] = &terms->data[k];
    return t;
  };
  Mat left_terms, right_terms;
  ForwardWithTerms(x, side_terms(0, left, &left_terms),
                   side_terms(1, right, &right_terms), out);
}

void TreeConvLayer::ChildTerm(int side, const Mat& x, Mat* terms) const {
  terms->rows = wp_.value.rows;
  terms->cols = x.cols;
  terms->data.assign(static_cast<size_t>(terms->rows) * x.cols, 0.f);
  AddMatMul(side == 0 ? wl_.value : wr_.value, x, terms);
}

void TreeConvLayer::ForwardWithTerms(const Mat& x, const TermColumns& left,
                                     const TermColumns& right,
                                     Mat* out) const {
  const int n = x.cols;
  out->rows = wp_.value.rows;
  out->cols = n;
  out->data.assign(static_cast<size_t>(out->rows) * n, 0.f);
  AddMatMul(wp_.value, x, out);
  AddTermsAndBias(left, right, out);
}

void TreeConvLayer::AddTermsAndBias(const TermColumns& left,
                                    const TermColumns& right,
                                    Mat* out) const {
  const int n = out->cols;
  // Each term is added whole, with a single add per element — the same
  // "+= acc" grouping Forward uses, so outputs match the per-item path.
  for (const TermColumns* side : {&left, &right}) {
    for (int j = 0; j < n; ++j) {
      const float* term = side->cols[j];
      if (term == nullptr) continue;
      for (int r = 0; r < out->rows; ++r) {
        out->data[static_cast<size_t>(r) * n + j] += term[r * side->stride];
      }
    }
  }
  for (int r = 0; r < out->rows; ++r) {
    const float b = b_.value.at(r, 0);
    for (int j = 0; j < n; ++j) out->at(r, j) += b;
  }
}

void TreeConvLayer::BackwardBatch(const Mat& xt, const std::vector<int>& left,
                                  const std::vector<int>& right,
                                  const Mat& dyt, Mat* dxt) {
  if (dxt) *dxt = Mat(dyt.rows, in_dim());
  std::vector<int> rows(static_cast<size_t>(dyt.cols));
  for (int j = 0; j < dyt.rows; ++j) {
    const float* dy = Row(dyt, j);
    const int nz = NonZeroRows(dy, dyt.cols, rows.data());
    const int* r = rows.data();
    OuterAcc(dy, r, nz, Row(xt, j), &wp_.grad);
    if (dxt) MatTVec(wp_.value, dy, r, nz, Row(dxt, j));
    if (left[j] >= 0) {
      OuterAcc(dy, r, nz, Row(xt, left[j]), &wl_.grad);
      if (dxt) MatTVec(wl_.value, dy, r, nz, Row(dxt, left[j]));
    }
    if (right[j] >= 0) {
      OuterAcc(dy, r, nz, Row(xt, right[j]), &wr_.grad);
      if (dxt) MatTVec(wr_.value, dy, r, nz, Row(dxt, right[j]));
    }
    BiasAcc(dy, &b_.grad);
  }
}

void DynamicMaxPool(const std::vector<Vec>& nodes, Vec* out) {
  const int dim = static_cast<int>(nodes[0].size());
  out->assign(dim, -1e30f);
  for (const Vec& node : nodes) {
    for (int d = 0; d < dim; ++d) {
      if (node[d] > (*out)[d]) (*out)[d] = node[d];
    }
  }
}

void DynamicMaxPoolBatch(const Mat& nodes, const std::vector<int>& item_begin,
                         Mat* pooled, std::vector<int>* argmax) {
  const int dim = nodes.rows;
  const int items = static_cast<int>(item_begin.size()) - 1;
  pooled->rows = dim;
  pooled->cols = items;
  pooled->data.resize(static_cast<size_t>(dim) * items);
  argmax->resize(static_cast<size_t>(dim) * items);
  for (int d = 0; d < dim; ++d) {
    const float* row = &nodes.data[static_cast<size_t>(d) * nodes.cols];
    for (int it = 0; it < items; ++it) {
      float best = -1e30f;
      int arg = item_begin[it];
      for (int col = item_begin[it]; col < item_begin[it + 1]; ++col) {
        const bool greater = row[col] > best;  // a select, not a branch
        best = greater ? row[col] : best;
        arg = greater ? col : arg;
      }
      pooled->at(d, it) = best;
      (*argmax)[static_cast<size_t>(d) * items + it] = arg;
    }
  }
}

void DynamicMaxPoolBatchBackward(const Mat& dpooled_t,
                                 const std::vector<int>& argmax,
                                 Mat* dnodes_t) {
  const int items = dpooled_t.rows;
  for (int it = 0; it < items; ++it) {
    for (int d = 0; d < dpooled_t.cols; ++d) {
      dnodes_t->at(argmax[static_cast<size_t>(d) * items + it], d) +=
          dpooled_t.at(it, d);
    }
  }
}

void Adam::Step(int batch_size) {
  t_++;
  const double scale = 1.0 / std::max(1, batch_size);
  // Global-norm gradient clipping.
  double clip_scale = 1.0;
  if (options_.grad_clip > 0) {
    double norm_sq = 0;
    for (Param* p : params_) {
      for (float g : p->grad.data) {
        double gs = g * scale;
        norm_sq += gs * gs;
      }
    }
    double norm = std::sqrt(norm_sq);
    if (norm > options_.grad_clip) clip_scale = options_.grad_clip / norm;
  }
  const double bc1 = 1.0 - std::pow(options_.beta1, t_);
  const double bc2 = 1.0 - std::pow(options_.beta2, t_);
  for (Param* p : params_) {
    for (size_t i = 0; i < p->value.data.size(); ++i) {
      double g = p->grad.data[i] * scale * clip_scale;
      double m = options_.beta1 * p->m.data[i] + (1 - options_.beta1) * g;
      double v = options_.beta2 * p->v.data[i] + (1 - options_.beta2) * g * g;
      p->m.data[i] = static_cast<float>(m);
      p->v.data[i] = static_cast<float>(v);
      double mhat = m / bc1, vhat = v / bc2;
      p->value.data[i] -= static_cast<float>(
          options_.lr * mhat / (std::sqrt(vhat) + options_.eps));
    }
    p->ZeroGrad();
  }
}

Status SaveParams(const std::vector<Param*>& params, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Status::Internal("cannot open " + path + " for writing");
  uint64_t count = params.size();
  std::fwrite(&count, sizeof(count), 1, f);
  for (const Param* p : params) {
    int32_t rows = p->value.rows, cols = p->value.cols;
    std::fwrite(&rows, sizeof(rows), 1, f);
    std::fwrite(&cols, sizeof(cols), 1, f);
    std::fwrite(p->value.data.data(), sizeof(float), p->value.data.size(), f);
  }
  std::fclose(f);
  return Status::OK();
}

Status LoadParams(const std::vector<Param*>& params, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::NotFound("cannot open " + path);
  // Every value is read and checked before any parameter is written.
  auto read_all = [&]() -> StatusOr<std::vector<std::vector<float>>> {
    uint64_t count = 0;
    if (std::fread(&count, sizeof(count), 1, f) != 1 ||
        count != params.size()) {
      return Status::InvalidArgument("param count mismatch in " + path);
    }
    std::vector<std::vector<float>> values;
    values.reserve(params.size());
    for (const Param* p : params) {
      int32_t rows = 0, cols = 0;
      if (std::fread(&rows, sizeof(rows), 1, f) != 1 ||
          std::fread(&cols, sizeof(cols), 1, f) != 1 ||
          rows != p->value.rows || cols != p->value.cols) {
        return Status::InvalidArgument("param shape mismatch in " + path);
      }
      std::vector<float>& v = values.emplace_back(p->value.data.size());
      if (std::fread(v.data(), sizeof(float), v.size(), f) != v.size()) {
        return Status::InvalidArgument("truncated param file " + path);
      }
    }
    if (std::fgetc(f) != EOF) {
      return Status::InvalidArgument("trailing bytes in param file " + path);
    }
    return values;
  };
  StatusOr<std::vector<std::vector<float>>> values = read_all();
  std::fclose(f);
  if (!values.ok()) return values.status();
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value.data.swap((*values)[i]);
  }
  return Status::OK();
}

Status CopyParams(const std::vector<Param*>& from,
                  const std::vector<Param*>& to) {
  if (from.size() != to.size()) {
    return Status::InvalidArgument("param list size mismatch");
  }
  // Every shape is checked before any parameter is written.
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i]->value.rows != to[i]->value.rows ||
        from[i]->value.cols != to[i]->value.cols) {
      return Status::InvalidArgument("param shape mismatch at index " +
                                     std::to_string(i));
    }
  }
  for (size_t i = 0; i < from.size(); ++i) {
    to[i]->value.data = from[i]->value.data;
  }
  return Status::OK();
}

}  // namespace balsa::nn
