#include "thermal/thermal_propagator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace topil {

namespace {

/// W doubles as one GCC vector value, W the register width of one
/// instruction-set variant: 2 (baseline), 4 (avx2) or 8 (avx512f). Loads
/// and stores go through memcpy, so it needs no may_alias or alignment
/// attribute.
template <std::size_t W>
struct DoubleVec {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};

/// Doubles per vector register at each instruction-set level.
constexpr std::size_t doubles_per_vector(SimdIsa isa) {
  return isa == SimdIsa::Avx512f ? 8 : isa == SimdIsa::Avx2 ? 4 : 2;
}

template <typename Vec>
[[gnu::always_inline]] inline void load(Vec& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename Vec>
[[gnu::always_inline]] inline void store(double* p, const Vec& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Applies the Jacobi rotation (c, s) to `len` element pairs:
/// x' = c*x - s*y and y' = s*x + c*y, W doubles per vector operation.
/// Elements are independent, so the width changes no bit.
template <std::size_t W>
[[gnu::always_inline]] inline void rotate_pairs(double* x, double* y,
                                                std::size_t len, double c,
                                                double s) {
  using Vec = typename DoubleVec<W>::type;
  std::size_t j = 0;
  for (; j + W <= len; j += W) {
    Vec xv;
    Vec yv;
    load(xv, x + j);
    load(yv, y + j);
    store(x + j, c * xv - s * yv);
    store(y + j, s * xv + c * yv);
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
struct JacobiSweeps {
  double* m;
  double* vt;
  std::size_t n;
  std::size_t ld;
  double* row;

  template <SimdIsa isa>
  [[gnu::always_inline]] void run() const {
    constexpr std::size_t W = doubles_per_vector(isa);
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
};

/// A = D^-1 V E V^T D and B = D^-1 V Phi V^T D^-1 into n x n row-major
/// `a` and `b`, from the transposed eigenvectors `vt` (rows `ld` apart,
/// ld a multiple of W, zero past n) and `d` (ld doubles, padded with 1.0).
/// The sums s_ij = sum_k v_ik v_jk e_k (and with phi_k) add the same
/// products in the same order as s_ji, so they are stored for j >= i only,
/// from W-aligned blocks of columns j, and mirrored: a_ij = s_ij d_j / d_i,
/// a_ji = s_ij d_i / d_j and b_ji = b_ij = s'_ij / (d_i d_j).
struct AssemblePropagator {
  const double* vt;
  std::size_t ld;
  const double* e;
  const double* phi;
  const double* d;
  double* a;
  double* b;
  std::size_t n;

  template <SimdIsa isa>
  [[gnu::always_inline]] void run() const {
    constexpr std::size_t W = doubles_per_vector(isa);
    using Vec = typename DoubleVec<W>::type;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j0 = i - i % W; j0 < n; j0 += W) {
        Vec sa = {};
        Vec sb = {};
        for (std::size_t k = 0; k < n; ++k) {
          const double* vk = vt + k * ld;
          Vec vj;
          load(vj, vk + j0);
          const Vec vv = vk[i] * vj;
          sa += vv * e[k];
          sb += vv * phi[k];
        }
        Vec dj;
        load(dj, d + j0);
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
};

/// The inner kernel of step_batched over raw slabs: lanes [0, width) of
/// node-major slabs whose rows are `stride` doubles apart, `width` a
/// multiple of 8. Each instruction-set variant sweeps them at its own
/// register width, W = doubles_per_vector(isa) lanes per vector. Safe for
/// the bit-exactness contract: the vectorized dimension is the lane axis
/// (independent columns, per-lane op order unchanged), and the project
/// compiles with -ffp-contract=off so no variant fuses a*x+b into an FMA.
///
/// Structured as a register-tiled, j-tiled GEMM so large networks (the
/// grid-refined spreader floorplans) stay compute-bound instead of
/// re-streaming the temperature slab from L2 once per output row:
/// - lanes are processed in blocks of 8, 4, 2 and 1 vectors (64, 32, 16
///   and 8 lanes at W = 8), each swept in tiles of R rows x V vectors
///   with R*V = 8, so every block keeps 8 independent add chains in
///   registers and a lane costs the same at any width;
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
struct PropagateSlab {
  const double* a;
  const double* b;
  const double* k;
  const double* temps;
  const double* power;
  const double* ambient;
  double* next;
  std::size_t n;
  std::size_t stride;
  std::size_t width;
  const unsigned char* skip_row;

  template <SimdIsa isa>
  [[gnu::always_inline]] void run() const {
    constexpr std::size_t W = doubles_per_vector(isa);
    // 32 j-values x 64 lanes x 8 bytes = 16 KiB: one (j-tile, lane-block)
    // temps tile stays L1-resident across all n output rows.
    constexpr std::size_t kJTile = 32;
    for (std::size_t j0 = 0; j0 < n; j0 += kJTile) {
      const std::size_t j1 = std::min(n, j0 + kJTile);
      // Widest block first: it amortizes each a/b broadcast over the most
      // lanes.
      std::size_t s0 = 0;
      lane_blocks<W, 8>(j0, j1, s0);
      lane_blocks<W, 4>(j0, j1, s0);
      lane_blocks<W, 2>(j0, j1, s0);
      lane_blocks<W, 1>(j0, j1, s0);
    }
  }

  /// One (R-row, V-vector, j-tile) tile at W lanes per vector: output rows
  /// [i0, i0 + R) by lanes [s0, s0 + V*W), over columns [j0, j1). The R*V
  /// accumulators are explicit vector values, which GCC keeps in registers
  /// across the tile; at -O2 it keeps a double array indexed by a lane loop
  /// on the stack and reloads every lane sum on every j. Each accumulator
  /// sees the scalar `step` sequence: `amb*k_i` (or the previous j-tile's
  /// partial sum), then `a_ij*T_j + b_ij*P_j` for ascending j.
  template <std::size_t W, std::size_t R, std::size_t V>
  [[gnu::always_inline]] void tile(std::size_t j0, std::size_t j1,
                                   std::size_t i0, std::size_t s0) const {
    using Vec = typename DoubleVec<W>::type;
    Vec acc[R][V];
    if (j0 == 0) {
      Vec amb[V];
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) load(amb[v], ambient + s0 + v * W);
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        const double ki = k[i0 + r];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v) acc[r][v] = amb[v] * ki;
      }
    } else {
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        const double* out = next + (i0 + r) * stride + s0;
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v) load(acc[r][v], out + v * W);
      }
    }
    for (std::size_t j = j0; j < j1; ++j) {
      const double* trow = temps + j * stride + s0;
      Vec t[V];
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) load(t[v], trow + v * W);
      if (skip_row != nullptr && skip_row[j]) {
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r) {
          const double aij = a[(i0 + r) * n + j];
#pragma GCC unroll 8
          for (std::size_t v = 0; v < V; ++v) acc[r][v] += aij * t[v];
        }
      } else {
        const double* prow = power + j * stride + s0;
        Vec p[V];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v) load(p[v], prow + v * W);
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r) {
          const double aij = a[(i0 + r) * n + j];
          const double bij = b[(i0 + r) * n + j];
#pragma GCC unroll 8
          for (std::size_t v = 0; v < V; ++v) {
            acc[r][v] += aij * t[v] + bij * p[v];
          }
        }
      }
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      double* out = next + (i0 + r) * stride + s0;
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) store(out + v * W, acc[r][v]);
    }
  }

  /// The lane blocks of V*W lanes that fit in [s0, width), from s0 on,
  /// over columns [j0, j1): every output row in R-row tiles with R*V = 8,
  /// the n % R leftover rows as 1 x V tiles. Blocks narrower than 8 lanes
  /// are never used: lane counts stay multiples of 8.
  template <std::size_t W, std::size_t V>
  [[gnu::always_inline]] void lane_blocks(std::size_t j0, std::size_t j1,
                                          std::size_t& s0) const {
    constexpr std::size_t R = 8 / V;
    if constexpr (V * W >= 8) {
      for (; s0 + V * W <= width; s0 += V * W) {
        std::size_t i = 0;
        for (; i + R <= n; i += R) tile<W, R, V>(j0, j1, i, s0);
        for (; i < n; ++i) tile<W, 1, V>(j0, j1, i, s0);
      }
    }
  }
};

/// The widest variant of the build's two kernels (JacobiSweeps,
/// AssemblePropagator): an avx512f one measured no faster than avx2. The
/// narrower variants' vector widths divide its own, so it sets the row
/// padding.
constexpr SimdIsa kWidestBuild = SimdIsa::Avx2;
constexpr std::size_t kMaxBuildWidth = doubles_per_vector(kWidestBuild);

detail::SymmetricEigen eigen_of(const std::vector<double>& m, std::size_t n,
                                SimdIsa isa) {
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
  run_simd<kWidestBuild>(
      JacobiSweeps{lower.data(), eig.vectors.data(), n, ld, row.data()}, isa);
  eig.values.resize(n);
  for (std::size_t k = 0; k < n; ++k) eig.values[k] = lower[k * ld + k];
  return eig;
}

/// step_batched sweeps whole blocks of this many lanes and pads the rest.
constexpr std::size_t kLaneBlock = 8;

}  // namespace

ThermalPropagator::ThermalPropagator(const RCNetwork& network, double dt)
    : ThermalPropagator(network, dt, widest_simd_isa()) {}

ThermalPropagator::ThermalPropagator(const RCNetwork& network, double dt,
                                     SimdIsa isa)
    : n_(network.num_nodes()), dt_(dt), isa_(isa) {
  TOPIL_REQUIRE(dt > 0.0, "propagator time step must be positive");
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

  const detail::SymmetricEigen eig = eigen_of(m, n, isa);

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
  run_simd<kWidestBuild>(
      AssemblePropagator{eig.vectors.data(), eig.stride, e.data(), phi.data(),
                         d_padded.data(), a_.data(), b_.data(), n},
      isa);
  k_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += b_[i * n + j] * g_amb[j];
    k_[i] = acc;
  }

  // Zero-power-row skip eligibility (see PropagateSlab): the induction
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

// Hot entry: 64-byte aligned (tools/hot_symbols.sh).
__attribute__((aligned(64))) void ThermalPropagator::step_batched(
    std::vector<double>& temps_c, const std::vector<double>& power_w,
    const std::vector<double>& ambient_c, std::size_t lanes,
    BatchWorkspace& ws) const {
  TOPIL_REQUIRE(lanes > 0, "empty batch");
  TOPIL_REQUIRE(temps_c.size() == n_ * lanes, "temperature slab size");
  TOPIL_REQUIRE(power_w.size() == n_ * lanes, "power slab size");
  TOPIL_REQUIRE(ambient_c.size() == lanes, "ambient vector size");
  ws.next.resize(n_ * lanes);

  // Mark power rows that are bitwise +0.0 in every lane so the kernel can
  // drop their b-term (bit-exact; see PropagateSlab). In a fleet slab
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

  // The kernel sweeps whole 8-lane blocks. The last lanes % 8 columns
  // run as one 8-lane block over zero-padded copies: a pad lane carries
  // +0.0 temperature, power and ambient, so it leaves the skip rows and
  // sign-bit guards above unchanged, and lanes never mix.
  const std::size_t body = lanes - lanes % kLaneBlock;
  if (body > 0) {
    run_simd(PropagateSlab{a_.data(), b_.data(), k_.data(), temps_c.data(),
                           power_w.data(), ambient_c.data(), ws.next.data(),
                           n_, lanes, body, skip},
             isa_);
  }
  if (body < lanes) {
    const std::size_t tail = lanes - body;
    ws.tail_temps.assign(n_ * kLaneBlock, 0.0);
    ws.tail_power.assign(n_ * kLaneBlock, 0.0);
    ws.tail_next.resize(n_ * kLaneBlock);
    ws.tail_ambient.assign(kLaneBlock, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      std::memcpy(&ws.tail_temps[i * kLaneBlock], &temps_c[i * lanes + body],
                  tail * sizeof(double));
      std::memcpy(&ws.tail_power[i * kLaneBlock], &power_w[i * lanes + body],
                  tail * sizeof(double));
    }
    std::memcpy(ws.tail_ambient.data(), &ambient_c[body],
                tail * sizeof(double));
    run_simd(PropagateSlab{a_.data(), b_.data(), k_.data(),
                           ws.tail_temps.data(), ws.tail_power.data(),
                           ws.tail_ambient.data(), ws.tail_next.data(), n_,
                           kLaneBlock, kLaneBlock, skip},
             isa_);
    for (std::size_t i = 0; i < n_; ++i) {
      std::memcpy(&ws.next[i * lanes + body], &ws.tail_next[i * kLaneBlock],
                  tail * sizeof(double));
    }
  }
  temps_c.swap(ws.next);
}

detail::SymmetricEigen detail::jacobi_eigen(const std::vector<double>& m,
                                            std::size_t n, SimdIsa isa) {
  TOPIL_REQUIRE(m.size() == n * n, "matrix size");
  return eigen_of(m, n, isa);
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
