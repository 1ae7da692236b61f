#include "nn/simd_kernels.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace topil::nn {
namespace {

// Calls block.run<kJBlock>(j0) over `width` contiguous output elements in
// descending block tiers: wide blocks fill the vector lanes, narrow tail
// tiers finish ragged widths without a scalar-remainder loop of different
// numerics (every tier runs the same per-element operation sequence).
template <typename Block>
[[gnu::always_inline]] inline void for_each_jblock(std::size_t width,
                                                   const Block& block) {
  std::size_t j0 = 0;
  for (; width - j0 >= 32; j0 += 32) block.template run<32>(j0);
  if (width - j0 >= 16) {
    block.template run<16>(j0);
    j0 += 16;
  }
  if (width - j0 >= 8) {
    block.template run<8>(j0);
    j0 += 8;
  }
  if (width - j0 >= 4) {
    block.template run<4>(j0);
    j0 += 4;
  }
  if (width - j0 >= 2) {
    block.template run<2>(j0);
    j0 += 2;
  }
  if (width - j0 >= 1) block.template run<1>(j0);
}

// The stores of one RowsBlock row (restrict lets them vectorize).
template <std::size_t kJBlock>
[[gnu::always_inline]] inline void store_biased(const float* acc,
                                                const float* __restrict bias,
                                                bool relu,
                                                float* __restrict out) {
  if (relu) {
    for (std::size_t t = 0; t < kJBlock; ++t) {
      const float v = acc[t] + bias[t];
      // Keep the reference's exact branch semantics: -0.0 and NaN pass
      // through ((v < 0) is false for both), so no max() substitution.
      out[t] = (v < 0.0f) ? 0.0f : v;
    }
  } else {
    for (std::size_t t = 0; t < kJBlock; ++t) out[t] = acc[t] + bias[t];
  }
}

// A ReLU output is <= 0 exactly where its pre-activation is, so masking by
// the layer input is the reference's separate `z <= 0` pass.
template <std::size_t kJBlock>
[[gnu::always_inline]] inline void store_masked(const float* acc,
                                                const float* __restrict mask,
                                                float* __restrict out) {
  for (std::size_t t = 0; t < kJBlock; ++t) {
    out[t] = (mask[t] <= 0.0f) ? 0.0f : acc[t];
  }
}

// out = x * w (x rows x depth, w depth x width), then one of three stores:
// + bias, + bias and ReLU (forward), or the upstream ReLU mask (input
// gradient, `mask` non-null).
struct RowsBlock {
  const float* x;
  std::size_t rows;
  std::size_t depth;
  const float* w;
  std::size_t width;
  const float* bias = nullptr;
  bool relu = false;
  const float* mask = nullptr;  ///< rows x width ReLU outputs, or null
  float* out;

  // Processes every row for the block of kJBlock outputs at j0. The
  // accumulator block lives in registers; the k loop broadcasts one input
  // element and streams kJBlock contiguous weights, which the compiler
  // turns into broadcast + vmulps + vaddps lanes (no FMA:
  // -ffp-contract=off).
  template <std::size_t kJBlock>
  [[gnu::always_inline]] void run(std::size_t j0) const {
    for (std::size_t i = 0; i < rows; ++i) {
      const float* xi = x + i * depth;
      float* oi = out + i * width + j0;
      float acc[kJBlock];
      for (std::size_t t = 0; t < kJBlock; ++t) acc[t] = 0.0f;
      const float* wk = w + j0;
      for (std::size_t k = 0; k < depth; ++k, wk += width) {
        const float xk = xi[k];
        for (std::size_t t = 0; t < kJBlock; ++t) acc[t] += xk * wk[t];
      }
      if (mask != nullptr) {
        store_masked<kJBlock>(acc, mask + i * width + j0, oi);
      } else {
        store_biased<kJBlock>(acc, bias + j0, relu, oi);
      }
    }
  }
};

// dw += x^T * dy and db += column sums of dy, for one block of kJBlock
// output channels (x rows x in, dy rows x width, dw in x width).
struct WeightGradBlock {
  const float* x;
  std::size_t rows;
  std::size_t in;
  const float* dy;
  std::size_t width;
  float* dw;
  float* db;

  template <std::size_t kJBlock>
  [[gnu::always_inline]] void run(std::size_t j0) const {
    for (std::size_t c = 0; c < in; ++c) {
      float acc[kJBlock];
      for (std::size_t t = 0; t < kJBlock; ++t) acc[t] = 0.0f;
      const float* dyk = dy + j0;
      for (std::size_t k = 0; k < rows; ++k, dyk += width) {
        // The reference skips x == 0 terms; here their product is masked
        // to +0.0f instead (its bits are all zero), which keeps the loop
        // branch-free. Adding +0.0f is the same as skipping: acc starts at
        // +0.0f and never becomes -0.0f, and a + 0.0f == a for every other
        // a, NaN and infinities included.
        const float xk = x[k * in + c];
        const std::uint32_t keep = xk == 0.0f ? 0u : ~0u;
        for (std::size_t t = 0; t < kJBlock; ++t) {
          const std::uint32_t term = std::bit_cast<std::uint32_t>(xk * dyk[t]);
          acc[t] += std::bit_cast<float>(term & keep);
        }
      }
      float* dwc = dw + c * width + j0;
      for (std::size_t t = 0; t < kJBlock; ++t) dwc[t] += acc[t];
    }
    float sum[kJBlock];
    for (std::size_t t = 0; t < kJBlock; ++t) sum[t] = db[j0 + t];
    const float* dyk = dy + j0;
    for (std::size_t k = 0; k < rows; ++k, dyk += width) {
      for (std::size_t t = 0; t < kJBlock; ++t) sum[t] += dyk[t];
    }
    for (std::size_t t = 0; t < kJBlock; ++t) db[j0 + t] = sum[t];
  }
};

// Adam over one block of kJBlock parameters at j0. The square roots run in
// their own loop: std::sqrt may set errno, which keeps that loop scalar,
// while the loops around it vectorize.
struct AdamBlock {
  float* param;
  const float* grad;
  float* m;
  float* v;
  const AdamCoefficients& c;
  std::size_t width;  ///< the parameter count

  template <std::size_t kJBlock>
  [[gnu::always_inline]] void run(std::size_t j0) const {
    update<kJBlock>(param + j0, grad + j0, m + j0, v + j0, c);
  }

  template <std::size_t kJBlock>
  [[gnu::always_inline]] static void update(float* __restrict param,
                                            const float* __restrict grad,
                                            float* __restrict m,
                                            float* __restrict v,
                                            const AdamCoefficients& c) {
    const double beta1 = c.beta1;
    const double beta2 = c.beta2;
    const double bc1 = c.bias_correction1;
    const double bc2 = c.bias_correction2;
    double root[kJBlock];
    for (std::size_t t = 0; t < kJBlock; ++t) {
      const double g = grad[t];
      m[t] = static_cast<float>(beta1 * m[t] + (1.0 - beta1) * g);
      v[t] = static_cast<float>(beta2 * v[t] + (1.0 - beta2) * g * g);
      root[t] = v[t] / bc2;
    }
    for (std::size_t t = 0; t < kJBlock; ++t) root[t] = std::sqrt(root[t]);
    for (std::size_t t = 0; t < kJBlock; ++t) {
      const double m_hat = m[t] / bc1;
      param[t] -= static_cast<float>(c.learning_rate * m_hat /
                                     (root[t] + c.epsilon));
    }
  }
};

/// A block swept over its `width` outputs: the kernel run_simd compiles
/// once per instruction-set variant, each vectorizing at its own register
/// width.
template <typename Block>
struct Sweep {
  Block block;

  template <SimdIsa>
  [[gnu::always_inline]] void run() const {
    for_each_jblock(block.width, block);
  }
};

}  // namespace

void dense_forward_simd(const float* x, std::size_t rows, std::size_t in,
                        const float* w, const float* bias,
                        std::size_t out_cols, float* out, bool relu,
                        SimdIsa isa) {
  TOPIL_REQUIRE(rows > 0, "dense_forward_simd: empty batch");
  TOPIL_REQUIRE(in > 0 && out_cols > 0, "dense_forward_simd: empty layer");
  run_simd(Sweep{RowsBlock{.x = x,
                           .rows = rows,
                           .depth = in,
                           .w = w,
                           .width = out_cols,
                           .bias = bias,
                           .relu = relu,
                           .out = out}},
           isa);
}

void dense_input_grad_simd(const float* dy, std::size_t rows,
                           std::size_t out_cols, const float* w_t,
                           const float* relu_out, std::size_t in, float* dx,
                           SimdIsa isa) {
  TOPIL_REQUIRE(rows > 0, "dense_input_grad_simd: empty batch");
  TOPIL_REQUIRE(in > 0 && out_cols > 0, "dense_input_grad_simd: empty layer");
  run_simd(Sweep{RowsBlock{.x = dy,
                           .rows = rows,
                           .depth = out_cols,
                           .w = w_t,
                           .width = in,
                           .mask = relu_out,
                           .out = dx}},
           isa);
}

void dense_weight_grad_simd(const float* x, std::size_t rows, std::size_t in,
                            const float* dy, std::size_t out_cols, float* dw,
                            float* db, SimdIsa isa) {
  TOPIL_REQUIRE(rows > 0, "dense_weight_grad_simd: empty batch");
  TOPIL_REQUIRE(in > 0 && out_cols > 0, "dense_weight_grad_simd: empty layer");
  run_simd(Sweep{WeightGradBlock{.x = x,
                                 .rows = rows,
                                 .in = in,
                                 .dy = dy,
                                 .width = out_cols,
                                 .dw = dw,
                                 .db = db}},
           isa);
}

void adam_update_simd(float* param, const float* grad, float* m, float* v,
                      std::size_t n, const AdamCoefficients& c,
                      SimdIsa isa) {
  run_simd(Sweep{AdamBlock{param, grad, m, v, c, n}}, isa);
}

}  // namespace topil::nn
