#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "platform/floorplan.hpp"

namespace topil {

/// Generic lumped-parameter (compact) thermal RC network.
///
/// Node i obeys  C_i * dT_i/dt = P_i + sum_j G_ij (T_j - T_i)
///                               + Gamb_i (T_amb - T_i)
/// i.e. the standard HotSpot-style equivalent circuit. The network is tiny
/// (tens of nodes), so a dense symmetric conductance matrix and explicit
/// integration with automatic sub-stepping are both simple and fast.
class RCNetwork {
 public:
  /// What a network is assembled from: capacitances, ambient conductances
  /// and the conductances in the order they were added. Bit-identical
  /// inputs assemble bit-identical matrices, so a cache can key on these
  /// O(n + e) values instead of the dense n x n matrix.
  struct Inputs {
    std::vector<double> capacitance_j_per_k;
    std::vector<double> ambient_g_w_per_k;
    std::vector<ThermalConductance> conductances;

    /// 64-bit mix of every value's exact bit pattern, word by word.
    std::uint64_t hash() const;
    /// Exact equality: every value bit for bit, conductances in order.
    bool identical(const Inputs& other) const;
  };

  /// @param capacitance_j_per_k  heat capacity per node (all > 0)
  /// @param ambient_g_w_per_k    conductance from each node to ambient
  ///                             (0 for internal nodes)
  RCNetwork(std::vector<double> capacitance_j_per_k,
            std::vector<double> ambient_g_w_per_k);
  /// Same, then `add_conductance` for each of `inputs.conductances`.
  explicit RCNetwork(Inputs inputs);

  /// Add a symmetric conductance between nodes a and b.
  void add_conductance(std::size_t a, std::size_t b, double g_w_per_k);

  std::size_t num_nodes() const { return inputs_.capacitance_j_per_k.size(); }
  double conductance(std::size_t a, std::size_t b) const;
  double ambient_conductance(std::size_t node) const;

  /// Reusable integration scratch (Heun stage vectors). Callers that step
  /// the network every simulation tick keep one workspace alive so the
  /// inner loop allocates nothing; a workspace is plain per-caller state,
  /// so pool workers each own theirs and nothing is hidden in globals.
  struct StepWorkspace {
    std::vector<double> k1;
    std::vector<double> predictor;
    std::vector<double> k2;
  };

  /// Advance temperatures by `dt` seconds under constant node powers.
  /// Internally subdivides into explicit-Euler steps below the stability
  /// limit, so any dt is safe.
  void step(std::vector<double>& temps_c, const std::vector<double>& power_w,
            double ambient_c, double dt) const;
  /// Same, reusing a caller-owned workspace across calls (hot path).
  void step(std::vector<double>& temps_c, const std::vector<double>& power_w,
            double ambient_c, double dt, StepWorkspace& ws) const;

  /// Steady-state temperatures for constant node powers (direct solve of
  /// the linear system L * T = P + Gamb * T_amb).
  std::vector<double> steady_state(const std::vector<double>& power_w,
                                   double ambient_c) const;

  /// Largest explicit-Euler step guaranteed stable for this network.
  /// Cached after the first call; `add_conductance` invalidates the cache,
  /// so steady topologies pay the O(n) scan once, not once per step.
  double max_stable_dt() const;
  /// How many times the stability scan actually ran (regression hook: a
  /// fixed topology stepped N times must report 1, not N).
  std::size_t stable_dt_scan_count() const { return stable_dt_scans_; }

  const Inputs& inputs() const { return inputs_; }

  /// Read-only views used by ThermalPropagator / SteadyStateSolver to
  /// assemble the system matrix without re-deriving the topology.
  const std::vector<double>& capacitances() const {
    return inputs_.capacitance_j_per_k;
  }
  const std::vector<double>& ambient_conductances() const {
    return inputs_.ambient_g_w_per_k;
  }
  /// Dense row-major symmetric conductance matrix; diagonal unused.
  const std::vector<double>& conductance_matrix() const { return g_; }
  /// Laplacian diagonal: sum_j G_ij + Gamb_i per node.
  const std::vector<double>& laplacian_row_sums() const { return row_sum_; }

 private:
  Inputs inputs_;
  std::vector<double> g_;  ///< dense row-major symmetric matrix, diag unused
  std::vector<double> row_sum_;  ///< sum_j G_ij + Gamb_i (Laplacian diagonal)
  mutable double stable_dt_cache_ = 0.0;
  mutable bool stable_dt_dirty_ = true;
  mutable std::size_t stable_dt_scans_ = 0;

  void euler_step(std::vector<double>& temps_c,
                  const std::vector<double>& power_w, double ambient_c,
                  double dt, StepWorkspace& ws) const;
};

}  // namespace topil
