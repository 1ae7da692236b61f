#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace topil::nn {

/// Dense row-major 2-D float tensor. The NN stack is deliberately small and
/// dependency-free: the policy network is a 21-input MLP, so a simple
/// cache-friendly matrix type outperforms any heavyweight framework here.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float value = 0.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  float* row(std::size_t r);
  const float* row(std::size_t r) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float value);

  /// Reshape in place, reusing the existing allocation when it is large
  /// enough. Contents are unspecified afterwards (callers overwrite).
  void resize(std::size_t rows, std::size_t cols);

  /// out = this * other  (rows x other.cols).
  Matrix matmul(const Matrix& other) const;
  /// out = this * other, written into a caller-owned output matrix with a
  /// caller-owned scratch buffer for the transposed right operand (reused
  /// across calls, it removes the per-call allocations). Accumulation order
  /// is identical to `matmul`, so results match bit-for-bit.
  void matmul_into(const Matrix& other, Matrix& out,
                   std::vector<float>& bt_scratch) const;
  /// out = this^T * other, skipping zero elements of this (scalar
  /// reference only, see dense_backward_reference).
  Matrix matmul_transposed_self(const Matrix& other) const;
  /// out = this * other^T (scalar reference only).
  Matrix matmul_transposed_other(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Scalar reference for one dense layer: out = x * w + bias, then an
/// optional ReLU. It runs matmul_into, a separate bias pass and a separate
/// `if (v < 0) v = 0` pass. nn::dense_forward_simd, which every inference
/// and training forward runs, performs the same per-element operation
/// sequence; tests and perf_infer compare it against this bit for bit.
void dense_forward_reference(const Matrix& x, const Matrix& w,
                             const std::vector<float>& bias, Matrix& out,
                             std::vector<float>& bt_scratch, bool relu);

/// Scalar reference for one dense layer's backward pass: dw += x^T * dy
/// (matmul_transposed_self, then an add pass), db += column sums of dy row
/// by row, and, if `dx` is non-null, dx = dy * w^T (matmul_transposed_other)
/// with no ReLU mask; a network reference masks dx by the upstream
/// pre-activations in a separate `z <= 0` pass. DenseLayer::backward runs
/// the same per-element operation sequences through the SIMD kernels; tests
/// and perf_infer compare it against this bit for bit.
void dense_backward_reference(const Matrix& x, const Matrix& w,
                              const Matrix& dy, Matrix& dw,
                              std::vector<float>& db, Matrix* dx);

}  // namespace topil::nn
