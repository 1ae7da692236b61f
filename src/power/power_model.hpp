#pragma once

#include <vector>

#include "platform/platform.hpp"

namespace topil {

/// Instantaneous power of every on-chip block.
struct PowerBreakdown {
  std::vector<double> core_w;    ///< per CoreId
  std::vector<double> uncore_w;  ///< per ClusterId (L2, interconnect)
  double npu_w = 0.0;

  double total_w() const;
};

/// Activity-based CPU power model with temperature-dependent leakage.
///
/// Per-core dynamic power:  dyn_coeff * V^2 * f * activity, where `activity`
/// is the product of the core's busy fraction and the running application's
/// switching-activity factor. Idle (clock-gated) cores still draw a small
/// residual dynamic fraction. Leakage grows linearly with temperature around
/// a reference point — the linearized form of the usual exponential model,
/// accurate over the 25-95 degC range the simulator operates in.
///
/// The paper's platform has *no power sensors*; accordingly nothing in the
/// runtime governors reads this model. It exists purely to drive the thermal
/// simulation, exactly like physical Joule heating does on the real board.
///
/// The per-(cluster, VF level) constants are tabulated once at construction,
/// so a `compute_into` call is table lookups and the per-core arithmetic.
class PowerModel {
 public:
  explicit PowerModel(const PlatformSpec& platform);

  /// Residual dynamic power fraction of an idle (clock-gated) core.
  static constexpr double kIdleActivityFloor = 0.02;

  /// Compute block powers.
  ///
  /// @param vf_levels      current VF level index per cluster
  /// @param core_activity  effective activity per core in [0, ~1.2]
  /// @param core_temp_c    current temperature per core (for leakage)
  /// @param npu_active     whether an NPU inference batch is in flight
  PowerBreakdown compute(const std::vector<std::size_t>& vf_levels,
                         const std::vector<double>& core_activity,
                         const std::vector<double>& core_temp_c,
                         bool npu_active) const;

  /// Same, into a caller-owned breakdown (simulator hot path: the per-tick
  /// result reuses the previous tick's vectors instead of allocating).
  void compute_into(const std::vector<std::size_t>& vf_levels,
                    const std::vector<double>& core_activity,
                    const std::vector<double>& core_temp_c, bool npu_active,
                    PowerBreakdown& out) const;

  /// Dynamic power of a single core at the given operating point (helper
  /// for calibration and tests).
  double core_dynamic_w(ClusterId cluster, std::size_t vf_level,
                        double activity) const;

  /// Leakage power of a single core at the given voltage and temperature.
  double core_leakage_w(ClusterId cluster, std::size_t vf_level,
                        double temp_c) const;

  const PlatformSpec& platform() const { return *platform_; }

 private:
  /// Constants of one (cluster, VF level) operating point. The products are
  /// the left-to-right prefixes of `coeff * V * V * f * activity`, so
  /// multiplying one by the activity evaluates that expression bit for bit.
  struct Level {
    double voltage_v = 0.0;
    double dyn_vvf = 0.0;     ///< ((dyn_coeff * V) * V) * f
    double uncore_vvf = 0.0;  ///< ((uncore_coeff * V) * V) * f
  };
  struct Cluster {
    CoreId first_core = 0;  ///< a cluster's cores are contiguous
    std::size_t num_cores = 0;
    double leak_g0 = 0.0;
    double leak_g1 = 0.0;
    double leak_tref = 0.0;
    std::vector<Level> levels;
  };

  const Level& level(ClusterId cluster, std::size_t vf_level) const;
  static double dynamic_w(const Level& level, double activity);
  static double leakage_w(const Cluster& cluster, const Level& level,
                          double temp_c);

  const PlatformSpec* platform_;
  std::vector<Cluster> clusters_;
  double npu_w_active_ = 0.0;  ///< both 0 without an NPU
  double npu_w_idle_ = 0.0;
};

}  // namespace topil
