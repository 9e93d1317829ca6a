// nn's kernels, compiled once per instruction set (kernels.inc). The
// variants differ only in the vector width the compiler may use: each one
// runs every output element's multiplies, adds and maxima in the same order,
// without FMA, so they agree bit for bit. ActiveKernels picks one per
// process from the CPU; nn's public functions call through it, and tests
// compare the variants directly.
#pragma once

#include <cstddef>

#include "src/nn/nn.h"

namespace balsa::nn {

/// One layer's weights and gradients for the node-major batched backward:
/// a Linear has w[0]; a TreeConvLayer has Wp, Wl, Wr and its children's
/// column indices (-1 for none).
struct LayerGrads {
  const Mat* w[3] = {nullptr, nullptr, nullptr};
  Mat* dw[3] = {nullptr, nullptr, nullptr};
  Mat* db = nullptr;
  const int* child[2] = {nullptr, nullptr};  // null for a Linear
};

/// The coefficients of one Adam::Step, shared by every parameter.
struct AdamStep {
  double scale = 1, clip_scale = 1;  // of the summed gradients
  double lr = 0, beta1 = 0, beta2 = 0, eps = 0;
  double bc1 = 1, bc2 = 1;  // bias corrections 1 - beta^t
};

struct Kernels {
  const char* isa;  // "baseline" or "avx2"
  /// GatherAdd.
  void (*gather_add)(const Mat& wt, int first, const float* x, int k,
                     float* y);
  /// ColumnAccumulate.
  void (*column_accumulate)(const Mat& wt, const float* x, float* y);
  /// Linear's and TreeConvLayer's BackwardBatch: `rows` holds dyt.cols
  /// ints of scratch; *dxt, when non-null, is zeroed and dyt.rows x inputs.
  void (*backward)(const LayerGrads& layer, const Mat& xt, const Mat& dyt,
                   Mat* dxt, int* rows);
  /// Adam::Step's update of one parameter's values and moments.
  void (*adam_update)(const AdamStep& step, Param* p);
  /// nn::ScoreRoots and nn::ChildTerms.
  void (*score_roots)(const RowNet& net, const RootJob* jobs, size_t n);
  void (*child_terms)(const RowNet& net, const TermJob* jobs, size_t n);
};

/// The variant every x86-64 CPU runs (the only one on other targets).
const Kernels& BaselineKernels();
/// The AVX2 variant, or null when the CPU (or the target) lacks AVX2.
const Kernels* Avx2Kernels();
/// The variant this process runs: AVX2 when the CPU has it, chosen once.
const Kernels& ActiveKernels();

}  // namespace balsa::nn
