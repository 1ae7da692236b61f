#include "nn/tensor.hpp"

#include <algorithm>

namespace topil::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, float value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {
  TOPIL_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

float& Matrix::at(std::size_t r, std::size_t c) {
  TOPIL_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

float Matrix::at(std::size_t r, std::size_t c) const {
  TOPIL_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

float* Matrix::row(std::size_t r) {
  TOPIL_REQUIRE(r < rows_, "row index out of range");
  return data_.data() + r * cols_;
}

const float* Matrix::row(std::size_t r) const {
  TOPIL_REQUIRE(r < rows_, "row index out of range");
  return data_.data() + r * cols_;
}

void Matrix::fill(float value) {
  for (float& x : data_) x = value;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  TOPIL_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

namespace {

// Row/column tile edges sized so one A tile, one B^T tile and the output
// tile fit comfortably in L1 for the widths the NN stack uses (<= 128).
constexpr std::size_t kBlockRows = 32;
constexpr std::size_t kBlockCols = 32;

}  // namespace

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  std::vector<float> bt;
  matmul_into(other, out, bt);
  return out;
}

void Matrix::matmul_into(const Matrix& other, Matrix& out,
                         std::vector<float>& bt_scratch) const {
  TOPIL_REQUIRE(cols_ == other.rows_, "matmul dimension mismatch");
  TOPIL_REQUIRE(&out != this && &out != &other,
                "matmul output must not alias an operand");
  const std::size_t k_dim = cols_;
  const std::size_t n_cols = other.cols_;
  out.resize(rows_, n_cols);

  // Transpose B once so both inner operands stream contiguously; the dot
  // product accumulates k in ascending order, matching the naive kernel's
  // per-element operation order exactly (bit-identical results).
  bt_scratch.resize(k_dim * n_cols);
  for (std::size_t k = 0; k < k_dim; ++k) {
    const float* b = other.row(k);
    for (std::size_t j = 0; j < n_cols; ++j) {
      bt_scratch[j * k_dim + k] = b[j];
    }
  }

  for (std::size_t i0 = 0; i0 < rows_; i0 += kBlockRows) {
    const std::size_t i1 = std::min(i0 + kBlockRows, rows_);
    for (std::size_t j0 = 0; j0 < n_cols; j0 += kBlockCols) {
      const std::size_t j1 = std::min(j0 + kBlockCols, n_cols);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* a = row(i);
        float* o = out.row(i);
        for (std::size_t j = j0; j < j1; ++j) {
          const float* b = bt_scratch.data() + j * k_dim;
          float acc = 0.0f;
          for (std::size_t k = 0; k < k_dim; ++k) acc += a[k] * b[k];
          o[j] = acc;
        }
      }
    }
  }
}

Matrix Matrix::matmul_transposed_self(const Matrix& other) const {
  TOPIL_REQUIRE(rows_ == other.rows_, "matmul dimension mismatch");
  Matrix out(cols_, other.cols_);
  for (std::size_t k = 0; k < rows_; ++k) {
    const float* a = row(k);
    const float* b = other.row(k);
    for (std::size_t i = 0; i < cols_; ++i) {
      const float aki = a[i];
      if (aki == 0.0f) continue;
      float* o = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) o[j] += aki * b[j];
    }
  }
  return out;
}

Matrix Matrix::matmul_transposed_other(const Matrix& other) const {
  TOPIL_REQUIRE(cols_ == other.cols_, "matmul dimension mismatch");
  Matrix out(rows_, other.rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const float* a = row(i);
    float* o = out.row(i);
    for (std::size_t j = 0; j < other.rows_; ++j) {
      const float* b = other.row(j);
      float acc = 0.0f;
      for (std::size_t k = 0; k < cols_; ++k) acc += a[k] * b[k];
      o[j] = acc;
    }
  }
  return out;
}

void dense_forward_reference(const Matrix& x, const Matrix& w,
                             const std::vector<float>& bias, Matrix& out,
                             std::vector<float>& bt_scratch, bool relu) {
  TOPIL_REQUIRE(bias.size() == w.cols(), "bias width mismatch");
  x.matmul_into(w, out, bt_scratch);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    float* o = out.row(r);
    for (std::size_t c = 0; c < out.cols(); ++c) o[c] += bias[c];
  }
  if (relu) {
    float* data = out.data();
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (data[i] < 0.0f) data[i] = 0.0f;
    }
  }
}

void dense_backward_reference(const Matrix& x, const Matrix& w,
                              const Matrix& dy, Matrix& dw,
                              std::vector<float>& db, Matrix* dx) {
  TOPIL_REQUIRE(dw.rows() == w.rows() && dw.cols() == w.cols() &&
                    db.size() == w.cols(),
                "gradient shape mismatch");
  const Matrix sum = x.matmul_transposed_self(dy);
  for (std::size_t i = 0; i < dw.size(); ++i) dw.data()[i] += sum.data()[i];
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* g = dy.row(r);
    for (std::size_t c = 0; c < db.size(); ++c) db[c] += g[c];
  }
  if (dx != nullptr) *dx = dy.matmul_transposed_other(w);
}

}  // namespace topil::nn
