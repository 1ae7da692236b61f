#pragma once

#include <cstddef>

namespace topil::nn {

/// Fused dense-layer forward pass: out = x * w + bias, optional ReLU. Every
/// dense forward, inference and training alike, runs through it
/// (DenseLayer::forward_inference_into).
///
///   x    rows x in, row-major
///   w    in x out_cols, row-major (output channel j contiguous at fixed k,
///        so the kernel vectorizes over j with NO transpose while keeping
///        the ascending-k per-element accumulation order of the scalar
///        reference — the linchpin of the bit-identity contract)
///   bias out_cols
///   out  rows x out_cols, row-major; must not alias x or w
///
/// Per output element the operation sequence is exactly the scalar
/// reference's (nn::dense_forward_reference): acc = 0.0f; acc += x[k]*w[k]
/// for k ascending; v = acc + bias; if relu and v < 0.0f then 0.0f. With
/// -ffp-contract=off (repo-wide) no FMA fusion can reassociate, so results
/// are bit-identical across the reference and every target_clones variant.
void dense_forward_simd(const float* x, std::size_t rows, std::size_t in,
                        const float* w, const float* bias,
                        std::size_t out_cols, float* out, bool relu);

}  // namespace topil::nn
