#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "thermal/rc_network.hpp"

namespace topil {

/// How transient thermal steps are integrated.
///
/// `Heun` is the historical explicit scheme (second-order, automatic
/// sub-stepping below the stability limit); it is the default so existing
/// determinism tests and recorded traces stay bit-identical. `Exponential`
/// replaces the sub-stepping loop with one precomputed matrix-exponential
/// propagator per (network, dt): exact for piecewise-constant power, one
/// dense n x n matvec per simulator tick, and unconditionally stable for
/// any dt. Bench binaries default to `Exponential`.
enum class ThermalIntegrator { Heun, Exponential };

/// Exact discrete-time propagator for the LTI thermal system
///
///   C * dT/dt = -L * T + P + Gamb * T_amb,   L = diag(row_sum) - G,
///
/// precomputed for one fixed time step `dt`:
///
///   T(t + dt) = A * T(t) + B * P + T_amb * k,
///
/// with A = exp(-C^-1 L dt), B = L^-1 (I - A) (evaluated spectrally, so
/// L may be singular / floating), and k = B * Gamb. Construction
/// diagonalizes the scaled-symmetric form M = C^-1/2 L C^-1/2 with a
/// cyclic Jacobi sweep — the network has at most a few hundred nodes, so
/// no external eigensolver is needed, and ThermalNetwork pays the cost
/// once per (network, dt) per process.
class ThermalPropagator {
 public:
  /// Builds with the widest instruction-set variant this CPU executes.
  ThermalPropagator(const RCNetwork& network, double dt);
  /// Builds, and later steps batches, with the `isa` variant of the vector
  /// kernels (the CPU must support it). Every variant produces the same
  /// bits.
  ThermalPropagator(const RCNetwork& network, double dt, SimdIsa isa);

  std::size_t num_nodes() const { return n_; }
  double dt() const { return dt_; }
  /// The update's n x n matrices (row-major) and ambient drive vector.
  const std::vector<double>& state_matrix() const { return a_; }
  const std::vector<double>& input_matrix() const { return b_; }
  const std::vector<double>& ambient_drive() const { return k_; }

  /// Per-caller scratch so `step` allocates nothing in steady state and
  /// one (cached, shared) propagator can serve many threads.
  struct Workspace {
    std::vector<double> next;
  };

  /// Advance temperatures by exactly `dt` under constant node powers.
  void step(std::vector<double>& temps_c, const std::vector<double>& power_w,
            double ambient_c, Workspace& ws) const;

  /// Scratch for `step_batched` (one per fleet batch group).
  struct BatchWorkspace {
    std::vector<double> next;
    std::vector<unsigned char> skip_row;  ///< all-(+0.0) power rows
    /// Zero-padded 8-lane copies of the last `lanes % 8` columns.
    std::vector<double> tail_temps;
    std::vector<double> tail_power;
    std::vector<double> tail_next;
    std::vector<double> tail_ambient;
  };

  /// Advance `lanes` independent temperature states by `dt` in one dense
  /// matrix-matrix sweep: A * [T_1 ... T_N] + B * [P_1 ... P_N] + amb * k.
  ///
  /// `temps_c` and `power_w` are node-major SoA slabs of `num_nodes() *
  /// lanes` doubles — element (node i, lane s) lives at `i * lanes + s` —
  /// and `ambient_c` holds one ambient per lane. Per lane, the accumulation
  /// order is exactly the scalar `step` order (`amb * k_i`, then `a_ij *
  /// T_j + b_ij * P_j` for ascending j), so with FP contraction disabled
  /// every lane's result is bit-identical to stepping it alone; the lane
  /// axis is what vectorizes, in blocks of 8 lanes at the variant's
  /// register width, with the last `lanes % 8` lanes stepped in a
  /// zero-padded block. The fleet engine relies on this for its
  /// scalar-vs-batched digest guarantee (DESIGN.md §10).
  void step_batched(std::vector<double>& temps_c,
                    const std::vector<double>& power_w,
                    const std::vector<double>& ambient_c, std::size_t lanes,
                    BatchWorkspace& ws) const;

  /// Number of propagators the networks in ThermalNetwork's process-wide
  /// cache hold (one per network and dt).
  static std::size_t shared_cache_size();

 private:
  std::size_t n_;
  double dt_;
  std::vector<double> a_;  ///< n x n state propagator
  std::vector<double> b_;  ///< n x n input (power) propagator
  std::vector<double> k_;  ///< B * Gamb — the ambient drive vector
  /// No k_ entry carries a sign bit — precondition for step_batched's
  /// bit-exact zero-power-row skip (see PropagateSlab in the .cpp).
  bool k_sign_clear_ = false;
  SimdIsa isa_;  ///< the variant step_batched runs
};

namespace detail {

/// Eigenpairs of a symmetric matrix M = V diag(values) V^T.
struct SymmetricEigen {
  std::vector<double> values;
  /// Row k (`stride` doubles apart, zero-padded past n) is the
  /// eigenvector of values[k]: V transposed.
  std::vector<double> vectors;
  std::size_t stride = 0;
};

/// The cyclic Jacobi eigendecomposition ThermalPropagator runs, with the
/// `isa` variant of its vector loops. `m` is n x n row-major; only its
/// lower triangle (j <= i) is read, the upper is taken to mirror it.
SymmetricEigen jacobi_eigen(const std::vector<double>& m, std::size_t n,
                            SimdIsa isa);

}  // namespace detail

/// Steady-state solver with a cached LU factorization.
///
/// Factors L = diag(row_sum) - G (optionally minus a diagonal feedback
/// term, e.g. the linear temperature coefficient of leakage power) once
/// with partial pivoting; every subsequent right-hand side is an O(n^2)
/// substitution instead of an O(n^3) elimination. The pivot order and
/// arithmetic sequence match RCNetwork::steady_state exactly, so solutions
/// are bit-identical to the historical per-call elimination.
class SteadyStateSolver {
 public:
  explicit SteadyStateSolver(const RCNetwork& network);
  /// Factor (L - diag(feedback)). Used for the coupled power/thermal
  /// steady state where core power grows linearly with core temperature.
  SteadyStateSolver(const RCNetwork& network,
                    const std::vector<double>& diag_feedback);

  std::size_t num_nodes() const { return n_; }

  /// Solve L * T = power + Gamb * ambient.
  std::vector<double> solve(const std::vector<double>& power_w,
                            double ambient_c) const;
  /// Same, into a caller-owned output (hot path: no allocation).
  void solve_into(const std::vector<double>& power_w, double ambient_c,
                  std::vector<double>& temps_c) const;
  /// Solve against a fully caller-assembled right-hand side.
  void solve_rhs_into(std::vector<double>& rhs_in_temps_out) const;

 private:
  std::size_t n_;
  std::vector<double> lu_;           ///< packed L\U factors, row-major
  std::vector<std::size_t> pivot_;   ///< row interchange per column
  std::vector<double> g_amb_;        ///< for assembling the ambient drive
};

}  // namespace topil
