#pragma once

#include <cstddef>

#include "common/cpu_dispatch.hpp"

namespace topil::nn {

// The dense-layer kernels: every dense computation in production runs
// through them, inference and training alike (DenseLayer, Adam). Each is
// compiled as one variant per SimdIsa (baseline, avx2, avx512f) that
// vectorizes over a block of contiguous output elements at that level's
// register width; `isa` names the variant, by default the widest this CPU
// runs (common/cpu_dispatch.hpp). Every output element runs exactly the
// operation sequence of its scalar reference (nn::dense_forward_reference,
// nn::dense_backward_reference, nn::ReferenceTraining's Adam). With
// -ffp-contract=off (repo-wide) no FMA fusion can reassociate, so results
// are bit-identical across the reference and every variant (DESIGN.md
// §12).

/// Fused dense-layer forward pass: out = x * w + bias, optional ReLU.
///
///   x    rows x in, row-major
///   w    in x out_cols, row-major (output channel j contiguous at fixed k,
///        so the kernel vectorizes over j with NO transpose while keeping
///        the ascending-k per-element accumulation order of the scalar
///        reference — the linchpin of the bit-identity contract)
///   bias out_cols
///   out  rows x out_cols, row-major; must not alias x, w or bias
///
/// Per output element: acc = 0.0f; acc += x[k]*w[k] for k ascending;
/// v = acc + bias; if relu and v < 0.0f then 0.0f.
void dense_forward_simd(const float* x, std::size_t rows, std::size_t in,
                        const float* w, const float* bias,
                        std::size_t out_cols, float* out, bool relu,
                        SimdIsa isa = widest_simd_isa());

/// Input gradient of a hidden dense layer, taken through the ReLU that
/// produced its input: dx = dy * W^T, and 0.0f wherever that input <= 0.
///
///   dy        rows x out_cols, row-major
///   w_t       W transposed: out_cols x in, row-major
///   relu_out  rows x in: the layer's input, a ReLU output
///   dx        rows x in; must not alias dy, w_t or relu_out
///
/// Per element: acc = 0.0f; acc += dy[j]*W[k][j] for j ascending;
/// dx = (relu_out <= 0.0f) ? 0.0f : acc.
void dense_input_grad_simd(const float* dy, std::size_t rows,
                           std::size_t out_cols, const float* w_t,
                           const float* relu_out, std::size_t in, float* dx,
                           SimdIsa isa = widest_simd_isa());

/// Parameter gradients of a dense layer, accumulated: dw += x^T * dy and
/// db += column sums of dy.
///
///   x   rows x in;  dy rows x out_cols;  dw in x out_cols;  db out_cols
///
/// Per dw element: acc = 0.0f; for k ascending, unless x[k][i] == 0,
/// acc += x[k][i]*dy[k][j]; then dw += acc. Per db element: db += dy[k][j]
/// for k ascending.
void dense_weight_grad_simd(const float* x, std::size_t rows, std::size_t in,
                            const float* dy, std::size_t out_cols, float* dw,
                            float* db, SimdIsa isa = widest_simd_isa());

/// Scalars of one Adam step; bias_correction<i> = 1 - beta<i>^t.
struct AdamCoefficients {
  double beta1 = 0.0;
  double beta2 = 0.0;
  double bias_correction1 = 0.0;
  double bias_correction2 = 0.0;
  double learning_rate = 0.0;
  double epsilon = 0.0;
};

/// One Adam update of n parameters with their float moments m and v. Per
/// element, in double: m = beta1*m + (1-beta1)*g and v = beta2*v +
/// (1-beta2)*g*g, each stored as float; then
/// param -= float(lr * (m / bc1) / (sqrt(v / bc2) + epsilon)).
void adam_update_simd(float* param, const float* grad, float* m, float* v,
                      std::size_t n, const AdamCoefficients& c,
                      SimdIsa isa = widest_simd_isa());

}  // namespace topil::nn
