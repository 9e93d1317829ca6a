#include "src/nn/nn.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/nn/kernels.h"

namespace balsa::nn {

void MatVec(const Mat& w, const Vec& x, Vec* y) {
  for (int r = 0; r < w.rows; ++r) {
    const float* row = &w.data[static_cast<size_t>(r) * w.cols];
    float acc = 0;
    for (int c = 0; c < w.cols; ++c) acc += row[c] * x[c];
    (*y)[r] += acc;
  }
}

Mat Transpose(const Mat& m) {
  Mat t(m.cols, m.rows);
  for (int r = 0; r < m.rows; ++r) {
    for (int c = 0; c < m.cols; ++c) t.at(c, r) = m.at(r, c);
  }
  return t;
}

void GatherAdd(const Mat& wt, int first, const float* x, int k, float* y) {
  ActiveKernels().gather_add(wt, first, x, k, y);
}

void ColumnAccumulate(const Mat& wt, const float* x, float* y) {
  ActiveKernels().column_accumulate(wt, x, y);
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

void Linear::BackwardBatch(const Mat& xt, const Mat& dyt, Mat* dxt) {
  if (dxt) *dxt = Mat(dyt.rows, in_dim());
  LayerGrads layer;
  layer.w[0] = &w_.value;
  layer.dw[0] = &w_.grad;
  layer.db = &b_.grad;
  std::vector<int> rows(static_cast<size_t>(dyt.cols));
  ActiveKernels().backward(layer, xt, dyt, dxt, rows.data());
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

void TreeConvLayer::BackwardBatch(const Mat& xt, const std::vector<int>& left,
                                  const std::vector<int>& right,
                                  const Mat& dyt, Mat* dxt) {
  if (dxt) *dxt = Mat(dyt.rows, in_dim());
  LayerGrads layer;
  Param* weights[3] = {&wp_, &wl_, &wr_};
  for (int k = 0; k < 3; ++k) {
    layer.w[k] = &weights[k]->value;
    layer.dw[k] = &weights[k]->grad;
  }
  layer.db = &b_.grad;
  layer.child[0] = left.data();
  layer.child[1] = right.data();
  std::vector<int> rows(static_cast<size_t>(dyt.cols));
  ActiveKernels().backward(layer, xt, dyt, dxt, rows.data());
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
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  t_++;
  const double scale = 1.0 / std::max(1, batch_size);
  // Global-norm gradient clipping.
  double norm_sq = 0;
  for (Param* p : params_) {
    for (float g : p->grad.data) {
      double gs = g * scale;
      norm_sq += gs * gs;
    }
  }
  const double norm = std::sqrt(norm_sq);
  AdamStep step;
  step.scale = scale;
  step.clip_scale = norm > kAdamGradClip ? kAdamGradClip / norm : 1.0;
  step.lr = lr_;
  step.beta1 = kBeta1;
  step.beta2 = kBeta2;
  step.eps = kEps;
  step.bc1 = 1.0 - std::pow(kBeta1, t_);
  step.bc2 = 1.0 - std::pow(kBeta2, t_);
  const Kernels& kernels = ActiveKernels();
  for (Param* p : params_) {
    kernels.adam_update(step, p);
    p->ZeroGrad();
  }
}

RowNet::RowNet(const TreeConvLayer& layer1, const TreeConvLayer& layer2,
               const Linear& hidden, const Linear& out, int query_inputs)
    : query_dim(query_inputs),
      tc1{Transpose(layer1.wp()), Transpose(layer1.wl()),
          Transpose(layer1.wr())},
      tc2{Transpose(layer2.wp()), Transpose(layer2.wl()),
          Transpose(layer2.wr())},
      fc1(Transpose(hidden.w().value)),
      fc2(Transpose(out.w().value)),
      tc1_b(layer1.b()),
      tc2_b(layer2.b()),
      fc1_b(hidden.b().value),
      fc2_b(out.b().value) {
  const int h1 = layer1.out_dim(), h2 = layer2.out_dim();
  layout.pooled = h1;
  layout.term_dim = h1 + h2;
  layout.term[0] = layout.pooled + h2;
  layout.term[1] = layout.term[0] + layout.term_dim;
  layout.stride = layout.term[1] + layout.term_dim;
}

void QueryTerm(const RowNet& net, const float* query, float* term) {
  const int h1 = net.tc1[0].cols;
  std::fill(term, term + 3 * h1, 0.f);
  for (int k = 0; k < 3; ++k) {
    GatherAdd(net.tc1[k], 0, query, net.query_dim, term + k * h1);
  }
}

void ScoreRoots(const RowNet& net, const RootJob* jobs, size_t n) {
  ActiveKernels().score_roots(net, jobs, n);
}

void ChildTerms(const RowNet& net, const TermJob* jobs, size_t n) {
  ActiveKernels().child_terms(net, jobs, n);
}

Status SaveParams(const std::vector<Param*>& params, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Status::Internal("cannot open " + path + " for writing");
  // A write error may show only when the buffer is flushed at close.
  auto write = [f](const void* data, size_t size, size_t n) {
    return std::fwrite(data, size, n, f) == n;
  };
  uint64_t count = params.size();
  bool ok = write(&count, sizeof(count), 1);
  for (const Param* p : params) {
    int32_t rows = p->value.rows, cols = p->value.cols;
    ok = ok && write(&rows, sizeof(rows), 1) && write(&cols, sizeof(cols), 1) &&
         write(p->value.data.data(), sizeof(float), p->value.data.size());
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::Internal("cannot write " + path);
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
