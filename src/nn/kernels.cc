#include "src/nn/kernels.h"

#include <cmath>

namespace balsa::nn {
namespace {

namespace baseline {
#define BALSA_NN_TARGET
#define BALSA_NN_ISA "baseline"
#define BALSA_NN_LANES 4
#include "src/nn/kernels.inc"
#undef BALSA_NN_LANES
#undef BALSA_NN_ISA
#undef BALSA_NN_TARGET
}  // namespace baseline

#if defined(__x86_64__)
// AVX2 alone: it does not imply FMA, whose fused multiply-add would round
// once where the baseline rounds twice. No arch= either, for the same
// reason.
namespace avx2 {
#define BALSA_NN_TARGET __attribute__((target("avx2")))
#define BALSA_NN_ISA "avx2"
#define BALSA_NN_LANES 8
#include "src/nn/kernels.inc"
#undef BALSA_NN_LANES
#undef BALSA_NN_ISA
#undef BALSA_NN_TARGET
}  // namespace avx2
#endif

}  // namespace

const Kernels& BaselineKernels() { return baseline::kKernels; }

const Kernels* Avx2Kernels() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported ? &avx2::kKernels : nullptr;
#else
  return nullptr;
#endif
}

const Kernels& ActiveKernels() {
  static const Kernels& active =
      Avx2Kernels() != nullptr ? *Avx2Kernels() : BaselineKernels();
  return active;
}

}  // namespace balsa::nn
