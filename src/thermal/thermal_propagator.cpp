#include "thermal/thermal_propagator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace topil {

namespace {

/// W doubles as one GCC vector value: the propagator build's vector type.
/// Loads and stores go through memcpy, so it needs no may_alias or
/// alignment attribute.
template <std::size_t W>
struct BuildVec {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};

/// Applies the Jacobi rotation (c, s) to `len` element pairs:
/// x' = c*x - s*y and y' = s*x + c*y, W doubles per vector operation.
/// Elements are independent, so the width changes no bit.
template <std::size_t W>
[[gnu::always_inline]] inline void rotate_pairs(double* x, double* y,
                                                std::size_t len, double c,
                                                double s) {
  using Vec = typename BuildVec<W>::type;
  std::size_t j = 0;
  for (; j + W <= len; j += W) {
    Vec xv;
    Vec yv;
    std::memcpy(&xv, x + j, sizeof xv);
    std::memcpy(&yv, y + j, sizeof yv);
    const Vec xr = c * xv - s * yv;
    const Vec yr = s * xv + c * yv;
    std::memcpy(x + j, &xr, sizeof xr);
    std::memcpy(y + j, &yr, sizeof yr);
  }
  for (; j < len; ++j) {
    const double xj = x[j];
    const double yj = y[j];
    x[j] = c * xj - s * yj;
    y[j] = s * xj + c * yj;
  }
}

/// Cyclic Jacobi eigendecomposition of the symmetric matrix whose lower
/// triangle (j <= i) is stored in `m`, rows `ld` doubles apart
/// (destroyed). Eigenvalues end up on the diagonal of `m`; row k of `vt`
/// (identity on entry, rows `ld` apart, ld a multiple of W) becomes the
/// k-th eigenvector. `row` is n-double scratch.
///
/// Every matrix element sees exactly the rotations, in the same order and
/// with the same arithmetic, as the textbook loop over a full symmetric
/// matrix (which rotates m[j][p] and m[j][q] for every j and mirrors each
/// write); only where the values live differs:
/// - each symmetric pair is stored once, in the lower triangle;
/// - row p of M sits in `row` for the whole p-loop: every rotation (p, q)
///   updates it, and it is written back when the p-loop ends, so m[q][p]
///   lives in row[q] meanwhile;
/// - m[q][j] for j < q is row q's contiguous head, rotated in place as one
///   span. j = p rides along; both its slots are overwritten before they
///   are read: row[p] by the diagonal update, m[q][p] by the write-back;
/// - m[q][j] for j > q is column q's tail, rotated in place one element at
///   a time (a gather into a vector, rotation and scatter measured no
///   faster);
/// - the eigenvectors are kept transposed, so rotating V's columns p and
///   q rotates two contiguous rows.
template <std::size_t W>
[[gnu::always_inline]] inline void jacobi_sweeps(double* m, double* vt,
                                                 std::size_t n,
                                                 std::size_t ld,
                                                 double* row) {
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        off += m[q * ld + p] * m[q * ld + p];
      }
    }
    if (off <= 1e-24) break;

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t j = 0; j < p; ++j) row[j] = m[p * ld + j];
      for (std::size_t j = p; j < n; ++j) row[j] = m[j * ld + p];

      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = row[q];
        if (std::abs(apq) < 1e-300) continue;
        double* mq = m + q * ld;
        const double mpp = row[p];
        const double mqq = mq[q];
        const double theta = (mqq - mpp) / (2.0 * apq);
        const double t = std::copysign(1.0, theta) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // m[j][p] -> c*m[j][p] - s*m[j][q], m[j][q] -> s*m[j][p] +
        // c*m[j][q] for every j other than p and q.
        rotate_pairs<W>(row, mq, q, c, s);
        for (std::size_t j = q + 1; j < n; ++j) {
          double& mqj = m[j * ld + q];
          const double mjp = row[j];
          const double mjq = mqj;
          row[j] = c * mjp - s * mjq;
          mqj = s * mjp + c * mjq;
        }

        row[p] = c * c * mpp - 2.0 * s * c * apq + s * s * mqq;
        mq[q] = s * s * mpp + 2.0 * s * c * apq + c * c * mqq;
        row[q] = 0.0;

        rotate_pairs<W>(vt + p * ld, vt + q * ld, ld, c, s);
      }

      for (std::size_t j = 0; j < p; ++j) m[p * ld + j] = row[j];
      for (std::size_t j = p; j < n; ++j) m[j * ld + p] = row[j];
    }
  }
}

/// A = D^-1 V E V^T D and B = D^-1 V Phi V^T D^-1 into n x n row-major
/// `a` and `b`, from the transposed eigenvectors `vt` (rows `ld` apart,
/// ld a multiple of W, zero past n) and `d` (ld doubles, padded with 1.0).
/// The sums s_ij = sum_k v_ik v_jk e_k (and with phi_k) add the same
/// products in the same order as s_ji, so they are stored for j >= i only,
/// from W-aligned blocks of columns j, and mirrored: a_ij = s_ij d_j / d_i,
/// a_ji = s_ij d_i / d_j and b_ji = b_ij = s'_ij / (d_i d_j).
template <std::size_t W>
[[gnu::always_inline]] inline void assemble_propagator(
    const double* vt, std::size_t ld, const double* e, const double* phi,
    const double* d, double* a, double* b, std::size_t n) {
  using Vec = typename BuildVec<W>::type;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j0 = i - i % W; j0 < n; j0 += W) {
      Vec sa = {};
      Vec sb = {};
      for (std::size_t k = 0; k < n; ++k) {
        const double* vk = vt + k * ld;
        Vec vj;
        std::memcpy(&vj, vk + j0, sizeof vj);
        const Vec vv = vk[i] * vj;
        sa += vv * e[k];
        sb += vv * phi[k];
      }
      Vec dj;
      std::memcpy(&dj, d + j0, sizeof dj);
      const Vec a_ij = sa * dj / d[i];
      const Vec a_ji = sa * d[i] / dj;
      const Vec b_ij = sb / (d[i] * dj);
      const std::size_t len = std::min(W, n - j0);
      for (std::size_t l = j0 < i ? i - j0 : 0; l < len; ++l) {
        const std::size_t j = j0 + l;
        a[i * n + j] = a_ij[l];
        a[j * n + i] = a_ji[l];
        b[i * n + j] = b_ij[l];
        b[j * n + i] = b_ij[l];
      }
    }
  }
}

/// The propagator build's two vector kernels, compiled once per
/// instruction-set level from the template bodies above: 4 and 2 doubles
/// per vector, the register width of each level.
struct BuildKernels {
  void (*jacobi)(double* m, double* vt, std::size_t n, std::size_t ld,
                 double* row);
  void (*assemble)(const double* vt, std::size_t ld, const double* e,
                   const double* phi, const double* d, double* a, double* b,
                   std::size_t n);
};

/// Every variant's vectors divide this, so it is the row padding.
constexpr std::size_t kMaxBuildWidth = 4;

void jacobi_baseline(double* m, double* vt, std::size_t n, std::size_t ld,
                     double* row) {
  jacobi_sweeps<2>(m, vt, n, ld, row);
}
void assemble_baseline(const double* vt, std::size_t ld, const double* e,
                       const double* phi, const double* d, double* a,
                       double* b, std::size_t n) {
  assemble_propagator<2>(vt, ld, e, phi, d, a, b, n);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void jacobi_avx2(double* m, double* vt,
                                                 std::size_t n,
                                                 std::size_t ld,
                                                 double* row) {
  jacobi_sweeps<4>(m, vt, n, ld, row);
}
__attribute__((target("avx2"))) void assemble_avx2(
    const double* vt, std::size_t ld, const double* e, const double* phi,
    const double* d, double* a, double* b, std::size_t n) {
  assemble_propagator<4>(vt, ld, e, phi, d, a, b, n);
}
#endif

BuildKernels build_kernels(SimdIsa isa) {
  TOPIL_REQUIRE(cpu_supports(isa),
                "this CPU cannot run the requested instruction-set variant");
#if defined(__x86_64__)
  if (isa == SimdIsa::Avx2) return {jacobi_avx2, assemble_avx2};
#endif
  return {jacobi_baseline, assemble_baseline};
}

/// Picked once per process.
SimdIsa build_isa() {
  static const SimdIsa isa = widest_simd_isa();
  return isa;
}

detail::SymmetricEigen eigen_of(const std::vector<double>& m, std::size_t n,
                                const BuildKernels& kernels) {
  detail::SymmetricEigen eig;
  eig.stride = (n + kMaxBuildWidth - 1) / kMaxBuildWidth * kMaxBuildWidth;
  const std::size_t ld = eig.stride;
  std::vector<double> lower(n * ld, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) lower[i * ld + j] = m[i * n + j];
  }
  eig.vectors.assign(n * ld, 0.0);
  for (std::size_t i = 0; i < n; ++i) eig.vectors[i * ld + i] = 1.0;
  std::vector<double> row(n);
  kernels.jacobi(lower.data(), eig.vectors.data(), n, ld, row.data());
  eig.values.resize(n);
  for (std::size_t k = 0; k < n; ++k) eig.values[k] = lower[k * ld + k];
  return eig;
}

/// Eight doubles: one zmm register in the AVX-512 clone, two ymm in the
/// AVX2 clone. `aligned(8)` makes loads and stores through it unaligned
/// ones, and `may_alias` lets it read and write the double slabs.
using Lanes8 = double __attribute__((vector_size(64), aligned(8), may_alias));
constexpr std::size_t kVecLanes = 8;

/// One (R-row, V-vector, j-tile) tile of propagate_slab: output rows
/// [i0, i0 + R) by lanes [s0, s0 + 8V), over columns [j0, j1). The R*V
/// accumulators are explicit vector values, which GCC keeps in registers
/// across the tile; at -O2 it keeps a double array indexed by a lane loop
/// on the stack and reloads every lane sum on every j. Each accumulator
/// sees the scalar `step` sequence: `amb*k_i` (or the previous tile's
/// partial sum), then `a_ij*T_j + b_ij*P_j` for ascending j. Forced inline
/// into the (possibly ISA-cloned) caller so each clone lowers the vector
/// arithmetic at its own width.
template <std::size_t R, std::size_t V>
[[gnu::always_inline]] inline void propagate_tile(
    const double* a, const double* b, const double* k, const double* temps,
    const double* power, const double* ambient, double* next, std::size_t n,
    std::size_t stride, const unsigned char* skip_row, std::size_t j0,
    std::size_t j1, bool first_tile, std::size_t i0, std::size_t s0) {
  Lanes8 acc[R][V];
  if (first_tile) {
    const auto* amb = reinterpret_cast<const Lanes8*>(ambient + s0);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const double ki = k[i0 + r];
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) acc[r][v] = amb[v] * ki;
    }
  } else {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const auto* out =
          reinterpret_cast<const Lanes8*>(next + (i0 + r) * stride + s0);
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) acc[r][v] = out[v];
    }
  }
  for (std::size_t j = j0; j < j1; ++j) {
    const auto* trow = reinterpret_cast<const Lanes8*>(temps + j * stride + s0);
    if (skip_row != nullptr && skip_row[j]) {
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        const double aij = a[(i0 + r) * n + j];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v) acc[r][v] += aij * trow[v];
      }
    } else {
      const auto* prow =
          reinterpret_cast<const Lanes8*>(power + j * stride + s0);
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        const double aij = a[(i0 + r) * n + j];
        const double bij = b[(i0 + r) * n + j];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v) {
          acc[r][v] += aij * trow[v] + bij * prow[v];
        }
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    auto* out = reinterpret_cast<Lanes8*>(next + (i0 + r) * stride + s0);
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) out[v] = acc[r][v];
  }
}

/// Every output row of one (lane-block, j-tile) pair in R-row tiles; the
/// n % R leftover rows run as 1 x V tiles.
template <std::size_t R, std::size_t V>
[[gnu::always_inline]] inline void propagate_lane_block(
    const double* a, const double* b, const double* k, const double* temps,
    const double* power, const double* ambient, double* next, std::size_t n,
    std::size_t stride, const unsigned char* skip_row, std::size_t j0,
    std::size_t j1, bool first_tile, std::size_t s0) {
  std::size_t i = 0;
  for (; i + R <= n; i += R) {
    propagate_tile<R, V>(a, b, k, temps, power, ambient, next, n, stride,
                         skip_row, j0, j1, first_tile, i, s0);
  }
  for (; i < n; ++i) {
    propagate_tile<1, V>(a, b, k, temps, power, ambient, next, n, stride,
                         skip_row, j0, j1, first_tile, i, s0);
  }
}

/// Inner kernel of step_batched over raw slabs: lanes [0, width) of
/// node-major slabs whose rows are `stride` doubles apart; `width` is a
/// multiple of 8. Multi-versioned where the toolchain supports it (glibc
/// ifunc dispatch picks the widest available ISA at load time) so the
/// tiles run 8 doubles per AVX-512 op on capable hosts without a separate
/// build. Safe for the bit-exactness contract: the vectorized dimension is
/// the lane axis (independent columns, per-lane op order unchanged), and
/// the project compiles with -ffp-contract=off so no clone fuses a*x+b
/// into an FMA.
///
/// Structured as a register-tiled, j-tiled GEMM so large networks (the
/// grid-refined spreader floorplans) stay compute-bound instead of
/// re-streaming the temperature slab from L2 once per output row:
/// - lanes are processed in blocks of 64/32/16/8, each swept in tiles of
///   R rows x V vectors with R*V = 8 (1x8, 2x4, 4x2, 8x1), so every block
///   keeps 8 independent add chains in registers and a lane costs the
///   same at any width;
/// - j is tiled so the temps/power tile of one (j-tile, lane-block) pair
///   fits in L1 while every output row visits it.
/// Per lane the accumulation order is untouched: j ascends within a tile
/// and tiles ascend, so each accumulator sees exactly the scalar sequence.
///
/// `skip_row[j] != 0` marks a power row that is bitwise +0.0 across all
/// lanes; its `b_ij * P_j` term is dropped. This is bit-exact, not just
/// approximately so: the dropped addend `b_ij * (+0.0)` is ±0.0, and
/// `x + (±0.0) == x` for every x except x == -0.0, while an IEEE-754
/// round-to-nearest accumulator can never *become* -0.0 (a sum is -0.0
/// only when both operands are -0.0, and exact cancellation yields +0.0).
/// The caller guarantees the induction base `ambient[s] * k[i]` is not
/// -0.0 by only enabling the skip when every k[i] and every ambient[s]
/// has a clear sign bit. Pass `skip_row == nullptr` to force the dense
/// path.
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
void propagate_slab(const double* a, const double* b, const double* k,
                    const double* temps, const double* power,
                    const double* ambient, double* next, std::size_t n,
                    std::size_t width, std::size_t stride,
                    const unsigned char* skip_row) {
  // 32 j-values x 64 lanes x 8 bytes = 16 KiB: one (j-tile, lane-block)
  // temps tile stays L1-resident across all n output rows.
  constexpr std::size_t kJTile = 32;
  for (std::size_t j0 = 0; j0 < n; j0 += kJTile) {
    const std::size_t j1 = std::min(n, j0 + kJTile);
    const bool first = j0 == 0;
    // Widest block first: it amortizes each a/b broadcast over the most
    // lanes.
    std::size_t s0 = 0;
    for (; s0 + 64 <= width; s0 += 64)
      propagate_lane_block<1, 8>(a, b, k, temps, power, ambient, next, n,
                                 stride, skip_row, j0, j1, first, s0);
    for (; s0 + 32 <= width; s0 += 32)
      propagate_lane_block<2, 4>(a, b, k, temps, power, ambient, next, n,
                                 stride, skip_row, j0, j1, first, s0);
    for (; s0 + 16 <= width; s0 += 16)
      propagate_lane_block<4, 2>(a, b, k, temps, power, ambient, next, n,
                                 stride, skip_row, j0, j1, first, s0);
    for (; s0 + 8 <= width; s0 += 8)
      propagate_lane_block<8, 1>(a, b, k, temps, power, ambient, next, n,
                                 stride, skip_row, j0, j1, first, s0);
  }
}

}  // namespace

ThermalPropagator::ThermalPropagator(const RCNetwork& network, double dt)
    : ThermalPropagator(network, dt, build_isa()) {}

ThermalPropagator::ThermalPropagator(const RCNetwork& network, double dt,
                                     SimdIsa isa)
    : n_(network.num_nodes()), dt_(dt) {
  TOPIL_REQUIRE(dt > 0.0, "propagator time step must be positive");
  const BuildKernels kernels = build_kernels(isa);
  const std::size_t n = n_;
  const std::vector<double>& cap = network.capacitances();
  const std::vector<double>& g_amb = network.ambient_conductances();
  const std::vector<double>& g = network.conductance_matrix();
  const std::vector<double>& row_sum = network.laplacian_row_sums();

  // Scaled-symmetric form: with D = diag(sqrt(C)), M = D^-1 L D^-1 is
  // symmetric positive semi-definite and similar to C^-1 L, so one
  // symmetric eigendecomposition covers the (generally non-symmetric)
  // state matrix. G is exactly symmetric, so M is too and only its lower
  // triangle is formed.
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = std::sqrt(cap[i]);
  std::vector<double> m(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double l = (i == j) ? row_sum[i] : -g[i * n + j];
      m[i * n + j] = l / (d[i] * d[j]);
    }
  }

  const detail::SymmetricEigen eig = eigen_of(m, n, kernels);

  // e_k = exp(-lambda_k dt) and phi_k = (1 - e_k) / lambda_k, with the
  // lambda -> 0 limit phi = dt (the energy-conserving mode of a floating
  // network). expm1 keeps phi accurate for small lambda*dt.
  std::vector<double> e(n);
  std::vector<double> phi(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double lambda = std::max(eig.values[k], 0.0);
    const double x = lambda * dt;
    e[k] = std::exp(-x);
    phi[k] = x > 1e-12 ? -std::expm1(-x) / lambda : dt;
  }

  // A = D^-1 V E V^T D,  B = D^-1 V Phi V^T D^-1,  k = B * Gamb.
  std::vector<double> d_padded(eig.stride, 1.0);
  std::copy(d.begin(), d.end(), d_padded.begin());
  a_.assign(n * n, 0.0);
  b_.assign(n * n, 0.0);
  kernels.assemble(eig.vectors.data(), eig.stride, e.data(), phi.data(),
                   d_padded.data(), a_.data(), b_.data(), n);
  k_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += b_[i * n + j] * g_amb[j];
    k_[i] = acc;
  }

  // Zero-power-row skip eligibility (see propagate_slab): the induction
  // base `ambient * k_i` can only be -0.0 if some k_i carries a sign bit
  // (ambient is checked per call). Physically k >= 0, but the spectral
  // assembly could round a ~0 entry negative, so check.
  k_sign_clear_ = true;
  for (const double ki : k_) k_sign_clear_ &= !std::signbit(ki);
}

void ThermalPropagator::step(std::vector<double>& temps_c,
                             const std::vector<double>& power_w,
                             double ambient_c, Workspace& ws) const {
  TOPIL_REQUIRE(temps_c.size() == n_, "temperature vector size");
  TOPIL_REQUIRE(power_w.size() == n_, "power vector size");
  ws.next.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* arow = &a_[i * n_];
    const double* brow = &b_[i * n_];
    double acc = ambient_c * k_[i];
    for (std::size_t j = 0; j < n_; ++j) {
      acc += arow[j] * temps_c[j] + brow[j] * power_w[j];
    }
    ws.next[i] = acc;
  }
  temps_c.swap(ws.next);
}

void ThermalPropagator::step_batched(std::vector<double>& temps_c,
                                     const std::vector<double>& power_w,
                                     const std::vector<double>& ambient_c,
                                     std::size_t lanes,
                                     BatchWorkspace& ws) const {
  TOPIL_REQUIRE(lanes > 0, "empty batch");
  TOPIL_REQUIRE(temps_c.size() == n_ * lanes, "temperature slab size");
  TOPIL_REQUIRE(power_w.size() == n_ * lanes, "power slab size");
  TOPIL_REQUIRE(ambient_c.size() == lanes, "ambient vector size");
  ws.next.resize(n_ * lanes);

  // Mark power rows that are bitwise +0.0 in every lane so the kernel can
  // drop their b-term (bit-exact; see propagate_slab). In a fleet slab
  // only the floorplan's heat-input rows (cores, clusters, NPU) are ever
  // written, so on grid-refined spreaders most rows qualify. The sign-bit
  // guards keep the -0.0 induction argument airtight; a violation just
  // falls back to the dense kernel.
  const unsigned char* skip = nullptr;
  bool skip_ok = k_sign_clear_;
  for (std::size_t s = 0; skip_ok && s < lanes; ++s) {
    skip_ok = !std::signbit(ambient_c[s]);
  }
  if (skip_ok) {
    ws.skip_row.assign(n_, 0);
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      const double* prow = power_w.data() + j * lanes;
      bool all_pos_zero = true;
      for (std::size_t s = 0; all_pos_zero && s < lanes; ++s) {
        std::memcpy(&bits, &prow[s], sizeof(bits));
        all_pos_zero = bits == 0;
      }
      ws.skip_row[j] = all_pos_zero ? 1 : 0;
    }
    skip = ws.skip_row.data();
  }

  // The kernel sweeps whole 8-lane vectors. The last lanes % 8 columns
  // run as one 8-lane block over zero-padded copies: a pad lane carries
  // +0.0 temperature, power and ambient, so it leaves the skip rows and
  // sign-bit guards above unchanged, and lanes never mix.
  const std::size_t body = lanes - lanes % kVecLanes;
  if (body > 0) {
    propagate_slab(a_.data(), b_.data(), k_.data(), temps_c.data(),
                   power_w.data(), ambient_c.data(), ws.next.data(), n_, body,
                   lanes, skip);
  }
  if (body < lanes) {
    const std::size_t tail = lanes - body;
    ws.tail_temps.assign(n_ * kVecLanes, 0.0);
    ws.tail_power.assign(n_ * kVecLanes, 0.0);
    ws.tail_next.resize(n_ * kVecLanes);
    ws.tail_ambient.assign(kVecLanes, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      std::memcpy(&ws.tail_temps[i * kVecLanes], &temps_c[i * lanes + body],
                  tail * sizeof(double));
      std::memcpy(&ws.tail_power[i * kVecLanes], &power_w[i * lanes + body],
                  tail * sizeof(double));
    }
    std::memcpy(ws.tail_ambient.data(), &ambient_c[body],
                tail * sizeof(double));
    propagate_slab(a_.data(), b_.data(), k_.data(), ws.tail_temps.data(),
                   ws.tail_power.data(), ws.tail_ambient.data(),
                   ws.tail_next.data(), n_, kVecLanes, kVecLanes, skip);
    for (std::size_t i = 0; i < n_; ++i) {
      std::memcpy(&ws.next[i * lanes + body], &ws.tail_next[i * kVecLanes],
                  tail * sizeof(double));
    }
  }
  temps_c.swap(ws.next);
}

detail::SymmetricEigen detail::jacobi_eigen(const std::vector<double>& m,
                                            std::size_t n, SimdIsa isa) {
  TOPIL_REQUIRE(m.size() == n * n, "matrix size");
  return eigen_of(m, n, build_kernels(isa));
}

SteadyStateSolver::SteadyStateSolver(const RCNetwork& network)
    : SteadyStateSolver(network, std::vector<double>()) {}

SteadyStateSolver::SteadyStateSolver(const RCNetwork& network,
                                     const std::vector<double>& diag_feedback)
    : n_(network.num_nodes()), g_amb_(network.ambient_conductances()) {
  TOPIL_REQUIRE(diag_feedback.empty() || diag_feedback.size() == n_,
                "feedback vector size");
  bool grounded = false;
  for (double g : g_amb_) grounded |= (g > 0.0);
  TOPIL_REQUIRE(grounded,
                "steady state requires a path to ambient (floating network)");

  const std::vector<double>& g = network.conductance_matrix();
  const std::vector<double>& row_sum = network.laplacian_row_sums();
  const std::size_t n = n_;
  lu_.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      lu_[i * n + j] = (i == j) ? row_sum[i] : -g[i * n + j];
    }
    if (!diag_feedback.empty()) lu_[i * n + i] -= diag_feedback[i];
  }

  // Right-looking LU with partial pivoting: the same pivot choice and the
  // same elimination arithmetic as RCNetwork::steady_state, with the
  // multipliers kept in the lower triangle so repeated right-hand sides
  // replay the elimination in O(n^2).
  pivot_.resize(n);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(lu_[r * n + col]) > std::abs(lu_[pivot * n + col])) {
        pivot = r;
      }
    }
    TOPIL_ASSERT(std::abs(lu_[pivot * n + col]) > 1e-12,
                 "singular thermal network");
    pivot_[col] = pivot;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu_[col * n + j], lu_[pivot * n + j]);
      }
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_[r * n + col] / lu_[col * n + col];
      lu_[r * n + col] = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = col + 1; j < n; ++j) {
        lu_[r * n + j] -= factor * lu_[col * n + j];
      }
    }
  }
}

void SteadyStateSolver::solve_rhs_into(
    std::vector<double>& rhs_in_temps_out) const {
  TOPIL_REQUIRE(rhs_in_temps_out.size() == n_, "rhs vector size");
  const std::size_t n = n_;
  std::vector<double>& x = rhs_in_temps_out;
  // All pivot swaps first (the stored multipliers are the post-swap ones,
  // so interleaving swaps with the elimination would misroute updates),
  // then the unit-lower-triangular forward solve.
  for (std::size_t col = 0; col < n; ++col) {
    if (pivot_[col] != col) std::swap(x[col], x[pivot_[col]]);
  }
  for (std::size_t col = 0; col < n; ++col) {
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_[r * n + col];
      if (factor == 0.0) continue;
      x[r] -= factor * x[col];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    double acc = x[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= lu_[i * n + j] * x[j];
    x[i] = acc / lu_[i * n + i];
  }
}

void SteadyStateSolver::solve_into(const std::vector<double>& power_w,
                                   double ambient_c,
                                   std::vector<double>& temps_c) const {
  TOPIL_REQUIRE(power_w.size() == n_, "power vector size");
  temps_c.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    temps_c[i] = power_w[i] + g_amb_[i] * ambient_c;
  }
  solve_rhs_into(temps_c);
}

std::vector<double> SteadyStateSolver::solve(
    const std::vector<double>& power_w, double ambient_c) const {
  std::vector<double> temps;
  solve_into(power_w, ambient_c, temps);
  return temps;
}

}  // namespace topil
