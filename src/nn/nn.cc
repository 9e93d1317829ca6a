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

void MatTVec(const Mat& w, const Vec& dy, Vec* dx) {
  for (int r = 0; r < w.rows; ++r) {
    const float* row = &w.data[static_cast<size_t>(r) * w.cols];
    float d = dy[r];
    if (d == 0) continue;
    for (int c = 0; c < w.cols; ++c) (*dx)[c] += row[c] * d;
  }
}

void OuterAcc(const Vec& dy, const Vec& x, Mat* dw) {
  for (int r = 0; r < dw->rows; ++r) {
    float d = dy[r];
    if (d == 0) continue;
    float* row = &dw->data[static_cast<size_t>(r) * dw->cols];
    for (int c = 0; c < dw->cols; ++c) row[c] += d * x[c];
  }
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

void ReluMatForward(Mat* x) {
  for (float& v : x->data) v = v > 0 ? v : 0;
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

void Linear::Backward(const Vec& x, const Vec& dy, Vec* dx) {
  OuterAcc(dy, x, &w_.grad);
  for (int r = 0; r < b_.grad.rows; ++r) b_.grad.at(r, 0) += dy[r];
  if (dx) MatTVec(w_.value, dy, dx);
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
    *terms = ChildTerm(side, gathered);
    t.stride = m;
    for (int k = 0; k < m; ++k) t.cols[cols[k]] = &terms->data[k];
    return t;
  };
  Mat left_terms, right_terms;
  ForwardWithTerms(x, side_terms(0, left, &left_terms),
                   side_terms(1, right, &right_terms), out);
}

Mat TreeConvLayer::ChildTerm(int side, const Mat& x) const {
  Mat terms(wp_.value.rows, x.cols);
  AddMatMul(side == 0 ? wl_.value : wr_.value, x, &terms);
  return terms;
}

void TreeConvLayer::ForwardWithTerms(const Mat& x, const TermColumns& left,
                                     const TermColumns& right,
                                     Mat* out) const {
  const int n = x.cols;
  out->rows = wp_.value.rows;
  out->cols = n;
  out->data.assign(static_cast<size_t>(out->rows) * n, 0.f);
  AddMatMul(wp_.value, x, out);
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

void TreeConvLayer::Backward(const std::vector<Vec>& in,
                             const std::vector<int>& left,
                             const std::vector<int>& right,
                             const std::vector<Vec>& dout,
                             std::vector<Vec>* din) {
  const int n = static_cast<int>(in.size());
  if (din) {
    din->assign(n, Vec(wp_.value.cols, 0.f));
  }
  for (int i = 0; i < n; ++i) {
    const Vec& dy = dout[i];
    OuterAcc(dy, in[i], &wp_.grad);
    if (din) MatTVec(wp_.value, dy, &(*din)[i]);
    if (left[i] >= 0) {
      OuterAcc(dy, in[left[i]], &wl_.grad);
      if (din) MatTVec(wl_.value, dy, &(*din)[left[i]]);
    }
    if (right[i] >= 0) {
      OuterAcc(dy, in[right[i]], &wr_.grad);
      if (din) MatTVec(wr_.value, dy, &(*din)[right[i]]);
    }
    for (int r = 0; r < b_.grad.rows; ++r) b_.grad.at(r, 0) += dy[r];
  }
}

void DynamicMaxPool(const std::vector<Vec>& nodes, Vec* out,
                    std::vector<int>* argmax) {
  const int dim = static_cast<int>(nodes[0].size());
  out->assign(dim, -1e30f);
  argmax->assign(dim, 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int d = 0; d < dim; ++d) {
      if (nodes[i][d] > (*out)[d]) {
        (*out)[d] = nodes[i][d];
        (*argmax)[d] = static_cast<int>(i);
      }
    }
  }
}

void DynamicMaxPoolBackward(const Vec& dout, const std::vector<int>& argmax,
                            std::vector<Vec>* dnodes) {
  for (size_t d = 0; d < dout.size(); ++d) {
    (*dnodes)[argmax[d]][d] += dout[d];
  }
}

void DynamicMaxPoolBatch(const Mat& nodes, const std::vector<int>& item_begin,
                         Mat* pooled) {
  const int dim = nodes.rows;
  const int items = static_cast<int>(item_begin.size()) - 1;
  pooled->rows = dim;
  pooled->cols = items;
  pooled->data.assign(static_cast<size_t>(dim) * items, -1e30f);
  for (int it = 0; it < items; ++it) {
    for (int col = item_begin[it]; col < item_begin[it + 1]; ++col) {
      for (int d = 0; d < dim; ++d) {
        const float v = nodes.at(d, col);
        if (v > pooled->at(d, it)) pooled->at(d, it) = v;
      }
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
  uint64_t count = 0;
  if (std::fread(&count, sizeof(count), 1, f) != 1 ||
      count != params.size()) {
    std::fclose(f);
    return Status::InvalidArgument("param count mismatch in " + path);
  }
  for (Param* p : params) {
    int32_t rows = 0, cols = 0;
    if (std::fread(&rows, sizeof(rows), 1, f) != 1 ||
        std::fread(&cols, sizeof(cols), 1, f) != 1 ||
        rows != p->value.rows || cols != p->value.cols) {
      std::fclose(f);
      return Status::InvalidArgument("param shape mismatch in " + path);
    }
    if (std::fread(p->value.data.data(), sizeof(float), p->value.data.size(),
                   f) != p->value.data.size()) {
      std::fclose(f);
      return Status::InvalidArgument("truncated param file " + path);
    }
  }
  std::fclose(f);
  return Status::OK();
}

Status CopyParams(const std::vector<Param*>& from,
                  const std::vector<Param*>& to) {
  if (from.size() != to.size()) {
    return Status::InvalidArgument("param list size mismatch");
  }
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i]->value.rows != to[i]->value.rows ||
        from[i]->value.cols != to[i]->value.cols) {
      return Status::InvalidArgument("param shape mismatch at index " +
                                     std::to_string(i));
    }
    to[i]->value.data = from[i]->value.data;
  }
  return Status::OK();
}

}  // namespace balsa::nn
